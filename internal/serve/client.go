package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"configwall/internal/core"
)

// Client is a Go client for a cwserve daemon. The zero HTTPClient uses a
// pooled transport sized for load generation (many concurrent keep-alive
// connections to one host); it is built lazily on first use, so a
// zero-value Client gets the same pooling NewClient configures instead of
// silently falling back to http.DefaultClient.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTPClient overrides the underlying HTTP client.
	HTTPClient *http.Client

	pooledOnce sync.Once
	pooled     *http.Client
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTPClient: newPooledHTTPClient()}
}

// newPooledHTTPClient builds the load-generation transport: many
// keep-alive connections to one host, so worker pools don't serialize on
// the default two-per-host idle cap.
func newPooledHTTPClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 256
	return &http.Client{Transport: t}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	c.pooledOnce.Do(func() { c.pooled = newPooledHTTPClient() })
	return c.pooled
}

// StatusError is a non-2xx server response; callers can branch on Code
// (backpressure is 429) and read the server's explanation in Body.
type StatusError struct {
	Code int
	Body string
	// RetryAfter is the server's backoff hint in seconds (the Retry-After
	// header, derived from live queue drain rate); 0 when absent.
	RetryAfter int
}

// statusError builds a StatusError from a non-2xx response.
func statusError(resp *http.Response, body []byte) *StatusError {
	se := &StatusError{Code: resp.StatusCode, Body: string(body)}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			se.RetryAfter = secs
		}
	}
	return se
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// runURL encodes one experiment request as /v1/run query parameters. It
// writes the query url.Values.Encode would, keys in sorted order, without
// Encode's map, per-key slices and sort: every /v1/run request builds one.
// Engine and pipeline names need no escaping; target and workload may.
func (c *Client) runURL(e core.Experiment, opts core.RunOptions) string {
	var b strings.Builder
	// 96 bytes hold the keys, n, the pipeline and the engine.
	b.Grow(len(c.Base) + 96 + len(e.Target) + len(e.Workload))
	b.WriteString(c.Base)
	b.WriteString("/v1/run?")
	// Zero-valued options stay off the URL: the server resolves an absent
	// key to the zero value, so the default cell's URL is the bare one.
	if opts.Engine != 0 {
		b.WriteString("engine=")
		b.WriteString(opts.Engine.String())
		b.WriteByte('&')
	}
	var num [20]byte
	b.WriteString("n=")
	b.Write(strconv.AppendInt(num[:0], int64(e.N), 10))
	b.WriteString("&pipeline=")
	b.WriteString(e.Pipeline.String())
	b.WriteString("&target=")
	b.WriteString(url.QueryEscape(e.Target))
	b.WriteString("&workload=")
	b.WriteString(url.QueryEscape(e.Workload))
	return b.String()
}

// RunRaw executes one experiment and returns the raw response body — the
// exact bytes json.Marshal(core.Result) produced on the server, for
// byte-identity checks against direct Runner results.
func (c *Client) RunRaw(ctx context.Context, e core.Experiment, opts core.RunOptions) ([]byte, error) {
	return c.get(ctx, c.runURL(e, opts))
}

// get issues one GET and returns the 200 body; any other status is a
// *StatusError.
func (c *Client) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp, body)
	}
	return body, nil
}

// Run executes one experiment on the server and decodes the result.
func (c *Client) Run(ctx context.Context, e core.Experiment, opts core.RunOptions) (core.Result, error) {
	return decodeResult(c.RunRaw(ctx, e, opts))
}

// decodeResult decodes a /v1/run body, passing a request error through.
func decodeResult(body []byte, err error) (core.Result, error) {
	var res core.Result
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return core.Result{}, fmt.Errorf("decoding result: %w", err)
	}
	return res, nil
}

// SweepSummary is the final trailer of a streamed sweep.
type SweepSummary struct {
	Cells  int
	Failed int
	// Status is the trailer's verdict: "ok", or "error" when any cell
	// failed.
	Status string
}

// ErrTruncatedStream reports an NDJSON sweep stream that ended without a
// valid trailer sentinel, or whose events don't add up to the trailer's
// cell count — the signature of a connection cut mid-sweep. It is
// retryable: the server's memoization makes a replayed sweep cheap, and
// SweepWithResume skips cells already delivered.
var ErrTruncatedStream = errors.New("truncated sweep stream")

// Sweep streams the sweep, invoking fn for every cell event in completion
// order; a non-nil fn error aborts the stream. It returns the server's
// final trailer summary.
//
// The stream is only trusted end-to-end: it must close with a trailer
// event (Done true, Status set), every cell must have produced exactly
// one event before it, and nothing may follow it. Any shortfall — an
// early EOF, a missing or statusless trailer, an undecodable line, a
// cell-count mismatch — is reported as ErrTruncatedStream rather than
// silently returning a partial sweep.
func (c *Client) Sweep(ctx context.Context, rq SweepRequest, fn func(SweepEvent) error) (SweepSummary, error) {
	body, err := json.Marshal(rq)
	if err != nil {
		return SweepSummary{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return SweepSummary{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return SweepSummary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return SweepSummary{}, statusError(resp, msg)
	}
	return readSweepStream(resp.Body, fn)
}

// readSweepStream reads an NDJSON sweep stream to its trailer, invoking fn
// for every cell event, under the rule Sweep documents: exactly one trailer
// with a status, last, after exactly as many cell events as it counts.
func readSweepStream(r io.Reader, fn func(SweepEvent) error) (SweepSummary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20) // a line holds one cell's whole Result
	var summary SweepSummary
	sawTrailer := false
	cellEvents := 0
	for sc.Scan() {
		if sawTrailer {
			return summary, fmt.Errorf("%w: events after the trailer", ErrTruncatedStream)
		}
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			// A cut mid-line leaves a partial JSON document; report it as
			// truncation so retry layers treat it like any other drop.
			return summary, fmt.Errorf("%w: undecodable sweep event: %v", ErrTruncatedStream, err)
		}
		if ev.Done {
			if ev.Status == "" {
				return summary, fmt.Errorf("%w: trailer has no status", ErrTruncatedStream)
			}
			summary = SweepSummary{Cells: ev.Cells, Failed: ev.Failed, Status: ev.Status}
			sawTrailer = true
			continue
		}
		cellEvents++
		if fn != nil {
			if err := fn(ev); err != nil {
				return summary, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return summary, err
	}
	if !sawTrailer {
		return summary, fmt.Errorf("%w: stream ended without a trailer", ErrTruncatedStream)
	}
	if cellEvents != summary.Cells {
		return summary, fmt.Errorf("%w: stream delivered %d of %d cells", ErrTruncatedStream, cellEvents, summary.Cells)
	}
	return summary, nil
}

// Healthz reads the health endpoint behind the retry policy and returns
// its verdict: "ok", or "degraded" once the persistent store has failed.
// A draining daemon answers 503, an error.
func (c *Client) Healthz(ctx context.Context, pol RetryPolicy) (string, error) {
	body, err := c.getText(ctx, "/healthz", pol)
	return strings.TrimSpace(body), err
}

// Metrics fetches the raw metrics exposition behind the retry policy.
func (c *Client) Metrics(ctx context.Context, pol RetryPolicy) (string, error) {
	return c.getText(ctx, "/metrics", pol)
}

// Registry fetches the server's registered targets, workloads, pipelines
// and engines behind the retry policy.
func (c *Client) Registry(ctx context.Context, pol RetryPolicy) (RegistryInfo, error) {
	var info RegistryInfo
	body, err := c.getText(ctx, "/v1/registry", pol)
	if err != nil {
		return info, err
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		return info, fmt.Errorf("decoding registry: %w", err)
	}
	return info, nil
}
