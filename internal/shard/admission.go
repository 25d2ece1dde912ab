package shard

import (
	"fmt"
	"math"
	"sync"
	"time"

	"casc/internal/metrics"
)

// Admission metric names.
const (
	MetricAdmissionAllowed = "casc_admission_allowed_total"
	MetricAdmissionShed    = "casc_admission_shed_total"
	MetricAdmissionTokens  = "casc_admission_tokens"
)

// ErrAdmission reports a request shed by admission control. RetryAfter is
// how long until the bucket next has a token; the HTTP layer maps the error
// to 503 Service Unavailable with a Retry-After header, composing with the
// resilience ladder's budget-exhaustion shedding: admission rejects work
// the platform should not even start, the ladder bounds work it did start.
type ErrAdmission struct {
	RetryAfter time.Duration
}

func (e *ErrAdmission) Error() string {
	return fmt.Sprintf("shard: admission shed, retry in %v", e.RetryAfter)
}

// TokenBucket is a classic token-bucket admission controller: tokens refill
// continuously at Rate per second up to Burst, and every admitted request
// spends one. It is safe for concurrent use.
type TokenBucket struct {
	rate  float64
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time

	allowed *metrics.Counter
	shed    *metrics.Counter
	gauge   *metrics.Gauge
}

// NewTokenBucket returns a bucket admitting rate requests per second with
// the given burst capacity (values < 1 are raised to 1 so a drained bucket
// can always recover to a whole token). The registry, when non-nil,
// receives the admission counters and token gauge.
func NewTokenBucket(rate float64, burst int, reg *metrics.Registry) (*TokenBucket, error) {
	if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
		return nil, fmt.Errorf("shard: admission rate %v, want > 0", rate)
	}
	if burst < 1 {
		burst = 1
	}
	tb := &TokenBucket{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   now(),
	}
	if reg != nil {
		tb.allowed = reg.Counter(MetricAdmissionAllowed, "Requests admitted by the token bucket.")
		tb.shed = reg.Counter(MetricAdmissionShed, "Requests shed by the token bucket.")
		tb.gauge = reg.Gauge(MetricAdmissionTokens, "Admission tokens currently available.")
		tb.gauge.Set(tb.tokens)
	}
	return tb, nil
}

// Admit spends one token if available. When the bucket is empty it returns
// an *ErrAdmission carrying the time until the next token accrues.
func (tb *TokenBucket) Admit() error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	t := now()
	tb.tokens = math.Min(tb.burst, tb.tokens+tb.rate*t.Sub(tb.last).Seconds())
	tb.last = t
	if tb.tokens < 1 {
		wait := time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
		if tb.shed != nil {
			tb.shed.Inc()
			tb.gauge.Set(tb.tokens)
		}
		return &ErrAdmission{RetryAfter: wait}
	}
	tb.tokens--
	if tb.allowed != nil {
		tb.allowed.Inc()
		tb.gauge.Set(tb.tokens)
	}
	return nil
}
