package server

import "time"

// now is the package wall clock used for round and request latency
// instrumentation. It is a variable holding time.Now rather than direct
// calls so no assignment path reads the wall clock directly — the
// seededrand invariant casc-lint enforces for this package.
var now = time.Now
