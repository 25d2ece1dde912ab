package shard

// WithFakeClock lends withFakeClock to the package's external tests, which
// drive the token bucket through server.Platform.
var WithFakeClock = withFakeClock
