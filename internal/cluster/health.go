package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"
)

// RPC failure classes, fed into the per-peer breakers and the metrics
// surface. A peer that times out, resets connections, serves 5xx, or ships
// corrupt snapshots is sick in different ways; the classes keep the
// distinction observable even though all of them trip the same breaker.
const (
	rpcFailTimeout   = "timeout"
	rpcFailTransport = "transport"
	rpcFailHTTP      = "http"
	rpcFailCorrupt   = "corrupt"
)

// classifyRPCFailure buckets one failed RPC.
func classifyRPCFailure(err error, status int) string {
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return rpcFailTimeout
		}
		var ne interface{ Timeout() bool }
		if errors.As(err, &ne) && ne.Timeout() {
			return rpcFailTimeout
		}
		return rpcFailTransport
	}
	if status >= 500 {
		return rpcFailHTTP
	}
	return rpcFailTransport
}

// RPCTimeouts are the per-RPC-class context deadlines replacing the old
// flat 10s client timeout: heartbeats are small and frequent (short),
// assign/done/locate control RPCs carry bounded JSON (medium), and snapshot
// fetches scale with the blob — FetchBase covers connection + headers, and
// FetchPerMB extends the deadline once the Content-Length is known.
type RPCTimeouts struct {
	Heartbeat  time.Duration // heartbeat + result push; <=0 means 2s
	Control    time.Duration // assign, locate, peer reports; <=0 means 5s
	FetchBase  time.Duration // snapshot fetch before headers; <=0 means 10s
	FetchPerMB time.Duration // fetch deadline extension per MB of body; <=0 means 2s
}

// withDefaults fills zero fields.
func (t RPCTimeouts) withDefaults() RPCTimeouts {
	if t.Heartbeat <= 0 {
		t.Heartbeat = 2 * time.Second
	}
	if t.Control <= 0 {
		t.Control = 5 * time.Second
	}
	if t.FetchBase <= 0 {
		t.FetchBase = 10 * time.Second
	}
	if t.FetchPerMB <= 0 {
		t.FetchPerMB = 2 * time.Second
	}
	return t
}

// fetchDeadline sizes a snapshot-fetch deadline to its blob: base plus the
// per-MB extension, rounded up to whole MBs. Unknown lengths (<0) get one
// MB's worth of slack.
func (t RPCTimeouts) fetchDeadline(contentLength int64) time.Duration {
	mbs := int64(1)
	if contentLength > 0 {
		mbs = (contentLength + (1 << 20) - 1) >> 20
	}
	return t.FetchBase + time.Duration(mbs)*t.FetchPerMB
}

// retryBudget is a token bucket shared by every retried RPC a node makes:
// each retry (not first attempts) spends one token. When the bucket is dry
// the retry is skipped, so a partitioned node degrades to one attempt per
// RPC instead of amplifying a sick network with retry storms.
type retryBudget struct {
	mu         sync.Mutex
	tokens     float64
	max        float64
	refillPerS float64
	last       time.Time
	now        func() time.Time

	spent  uint64
	denied uint64
}

// newRetryBudget builds a bucket holding `burst` tokens refilling at
// `perSecond` tokens/s. perSecond <= 0 disables retries entirely (an empty,
// never-refilling budget); burst <= 0 means 2×perSecond.
func newRetryBudget(perSecond, burst float64, now func() time.Time) *retryBudget {
	if now == nil {
		now = time.Now
	}
	if burst <= 0 {
		burst = 2 * perSecond
	}
	return &retryBudget{
		tokens:     burst,
		max:        burst,
		refillPerS: perSecond,
		last:       now(),
		now:        now,
	}
}

// take spends one retry token; false means the budget is exhausted.
func (b *retryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if b.refillPerS > 0 {
		b.tokens += now.Sub(b.last).Seconds() * b.refillPerS
		if b.tokens > b.max {
			b.tokens = b.max
		}
	}
	b.last = now
	if b.tokens < 1 {
		b.denied++
		return false
	}
	b.tokens--
	b.spent++
	return true
}

// stats returns the cumulative spend/deny counters.
func (b *retryBudget) stats() (spent, denied uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent, b.denied
}

// defaultHTTPClient is the transport both cluster roles fall back to when
// the caller injects none: http.DefaultTransport's keep-alive pool widened
// past its per-host idle limit of 2, so per-tick assignment batches,
// heartbeats and snapshot fetches reuse TCP connections instead of
// re-dialing — with several workers behind one coordinator the default
// pool churns connections badly enough to show up in sweep wall time.
func defaultHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 128
	tr.MaxIdleConnsPerHost = 16
	return &http.Client{Transport: tr}
}

// drainBody discards and closes a response body so the transport can reuse
// the connection; nil-safe.
func drainBody(resp *http.Response) {
	if resp == nil || resp.Body == nil {
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
