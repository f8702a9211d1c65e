package rpc

import (
	"time"
)

// RetryPolicy bounds how a dialed client responds to transport failure:
// every attempt runs under a connection deadline, failed attempts redial
// and retry with exponential backoff and full jitter on the top half, and
// both the attempt count and the total backoff slept per call are capped.
//
// Retries are idempotency-aware. An op is re-sent only when that is
// provably safe: either the request frame never fully left this process
// (the send errored, so the server cannot have parsed it), or the op is
// idempotent, so a second application is harmless. A non-idempotent op
// (create/write/close/remove) whose reply was lost after a complete send
// is NOT retried — the server may have applied it — and the call fails
// with the transport error; such decisions are counted under
// rpc.client.retries_suppressed.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call, including the
	// first. Values below 1 behave as 1 (no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it up to MaxBackoff. Zero disables backoff sleeps.
	BaseBackoff time.Duration
	// MaxBackoff caps a single backoff sleep.
	MaxBackoff time.Duration
	// BackoffBudget caps the total time a single call may spend sleeping
	// between retries; once exceeded the call fails. Zero means no cap.
	BackoffBudget time.Duration
	// CallTimeout is the per-attempt deadline set on the connection before
	// each send (SetDeadline), so a stalled node surfaces as a timeout
	// instead of a hang. Zero disables the deadline.
	CallTimeout time.Duration
}

// DefaultRetryPolicy returns the production defaults: 4 attempts, 5 ms
// base backoff doubling to 250 ms, 2 s of total backoff per call, and a
// 30 s per-attempt deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:   4,
		BaseBackoff:   5 * time.Millisecond,
		MaxBackoff:    250 * time.Millisecond,
		BackoffBudget: 2 * time.Second,
		CallTimeout:   30 * time.Second,
	}
}

// idempotentOp reports whether an opcode may be safely re-sent when its
// reply was lost: the server could have applied the first send already.
//
//   - open/read/stat/readdir/size: pure reads (a retried open can leak one
//     server handle, which is benign — the handle table is per-process).
//   - mkdirall: converges to the same state on re-application.
//   - ident: declares the connection's tenant; re-declaring is a no-op.
//   - tableget/tableput: the get is a pure read; the put replaces the
//     whole table at an explicit version, so re-applying it converges
//     (and a stale version is rejected either way).
//   - watch: a pure read; re-polling with the same CRC is the normal
//     pattern even without failures.
//   - create/write/close/remove/rename: a second application truncates
//     data, appends bytes twice, or fails on the now-missing
//     handle/file/source path.
func idempotentOp(op uint32) bool {
	switch op {
	case opOpen, opRead, opStat, opReadDir, opSize, opMkdirAll, opIdent,
		opTableGet, opTablePut, opWatch:
		return true
	}
	return false
}

// backoffDelay computes the sleep before retry number `retry` (1-based):
// exponential growth capped at MaxBackoff, with full jitter on the top
// half so synchronized clients desynchronize while keeping a floor.
// Calls run side by side, so the shared rng is drawn under c.mu.
func (c *Client) backoffDelay(pol RetryPolicy, retry int) time.Duration {
	d := pol.BaseBackoff
	if d <= 0 {
		return 0
	}
	for i := 1; i < retry; i++ {
		d *= 2
		if pol.MaxBackoff > 0 && d >= pol.MaxBackoff {
			d = pol.MaxBackoff
			break
		}
	}
	if pol.MaxBackoff > 0 && d > pol.MaxBackoff {
		d = pol.MaxBackoff
	}
	half := d / 2
	c.mu.Lock()
	defer c.mu.Unlock()
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}
