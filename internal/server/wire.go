// wire.go is the service's JSON wire layer: request/response shapes for
// every endpoint and the mapping from the plane's typed errors and terminal
// outcomes to HTTP status codes. Everything here is stdlib encoding/json;
// multi-record responses are JSON lines (one object per line) so both sides
// can stream without buffering a run's worth of completions.
package server

import (
	"net/http"

	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
)

// Op is one submitted operation — the wire form of openloop.Request minus
// the arrival, which the server stamps at the epoch boundary that admits it.
type Op struct {
	// Op is "read"/"r" (default) or "write"/"w".
	Op string `json:"op,omitempty"`
	// Off is the byte offset into the pool's logical space.
	Off int64 `json:"off"`
	// Len is the transfer size in bytes (default: one 4 KB page).
	Len int `json:"len,omitempty"`
	// Tenant is the QoS tenant index (default 0).
	Tenant int `json:"tenant,omitempty"`
	// DeadlineUS is a relative deadline in microseconds of simulated time
	// (fractional for sub-microsecond budgets); zero means none.
	DeadlineUS float64 `json:"deadline_us,omitempty"`
	// Seq is a caller-chosen correlation tag echoed on the op's Result —
	// stream responses arrive in completion order, not submission order.
	Seq int `json:"seq,omitempty"`
}

// Result is one per-op response line, from /v1/submit, /v1/stream and
// /v1/poll alike. Status is "accepted" for an async admit; otherwise it is
// the terminal outcome ("completed", "shed", "expired", "failed",
// "throttled") with the plane's typed error chain in Error.
type Result struct {
	ID        uint64  `json:"id"`
	Seq       int     `json:"seq,omitempty"`
	Status    string  `json:"status"`
	Error     string  `json:"error,omitempty"`
	Tenant    int     `json:"tenant,omitempty"`
	Write     bool    `json:"write,omitempty"`
	LatencyUS float64 `json:"latency_us,omitempty"`
	Late      bool    `json:"late,omitempty"`
}

// StreamSummary is the final line of a /v1/stream response: the batch's
// conservation equation as the server retired it.
type StreamSummary struct {
	Summary   bool `json:"summary"`
	Ops       int  `json:"ops"`
	Invalid   int  `json:"invalid"`
	Completed int  `json:"completed"`
	Shed      int  `json:"shed"`
	Expired   int  `json:"expired"`
	Failed    int  `json:"failed"`
	Throttled int  `json:"throttled"`
}

// ChannelState is one channel's occupancy snapshot inside Stats.
type ChannelState struct {
	Held     int    `json:"held"`
	Queued   int    `json:"queued"`
	InFlight int    `json:"in_flight"`
	Breaker  string `json:"breaker"`
}

// Stats is the /v1/stats body: the pool's conservation ledger (its fields
// flatten into the body under their own JSON names) plus the service's own
// accounting (poll ring occupancy, drops, drain state). Terminal ==
// Submitted with Backlog == 0 means the plane is quiesced — clients use
// that to detect that every async submission has retired.
type Stats struct {
	pool.Ledger
	// Terminal is the server's Ledger.Terminal, sent so clients can check
	// it against the counters they received.
	Terminal uint64 `json:"terminal"`

	LatMeanUS float64 `json:"lat_mean_us"`
	LatP50US  float64 `json:"lat_p50_us"`
	LatP99US  float64 `json:"lat_p99_us"`

	Epochs   int     `json:"epochs"`
	SimUS    float64 `json:"sim_us"`
	Backlog  int     `json:"backlog"`
	Capacity int64   `json:"capacity"`

	PollBuffered int    `json:"poll_buffered"`
	PollDropped  uint64 `json:"poll_dropped"`
	Captured     int    `json:"captured,omitempty"`
	Draining     bool   `json:"draining,omitempty"`

	Channels []ChannelState `json:"channels"`
}

// DrainReport is the /v1/shutdown body: the final stats after the plane
// drained, plus the pool's own conservation audit ("ok" or the CheckHealth
// error text).
type DrainReport struct {
	Stats  Stats  `json:"stats"`
	Health string `json:"health"`
}

// errorBody is the JSON shape of every non-Result error response.
type errorBody struct {
	Error string `json:"error"`
}

// errStatus maps a synchronous Submit refusal to its HTTP status: the
// request never entered the plane asynchronously, but throttles and sheds
// are still terminal outcomes in the conservation equation.
func errStatus(err error) int { return outcomeStatus(pool.OutcomeOf(err)) }

// errResult is the Result line for a synchronous Submit refusal.
func errResult(id uint64, seq int, err error) Result {
	return Result{ID: id, Seq: seq, Status: pool.OutcomeOf(err).String(), Error: err.Error()}
}

// outcomeStatus maps a terminal Completion (a sync-wait submit's response)
// to its HTTP status.
func outcomeStatus(o pool.Outcome) int {
	switch o {
	case pool.OutcomeCompleted:
		return http.StatusOK // 200
	case pool.OutcomeThrottled:
		return http.StatusTooManyRequests // 429
	case pool.OutcomeShed:
		return http.StatusServiceUnavailable // 503
	case pool.OutcomeExpired:
		return http.StatusGatewayTimeout // 504
	}
	return http.StatusInternalServerError // 500
}

// resultOf renders a terminal Completion as a wire Result.
func resultOf(c pool.Completion, seq int) Result {
	r := Result{
		ID:        c.ID,
		Seq:       seq,
		Status:    c.Outcome.String(),
		Tenant:    c.Tenant,
		Write:     c.Write,
		LatencyUS: float64(c.Latency) / float64(sim.Microsecond),
		Late:      c.Late,
	}
	if c.Err != nil {
		r.Error = c.Err.Error()
	}
	return r
}
