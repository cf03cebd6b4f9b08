package check

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// Crafted outcomes on model "m": sent and received ticks, then the
// answer.
func rd(client, path string, sent, recv, gen int64, resp string) Outcome {
	return Outcome{Client: client, Model: "m", Method: http.MethodGet, Path: path,
		Sent: sent, Received: recv, Status: http.StatusOK, Gen: gen, Resp: []byte(resp)}
}

func st(sent, recv, gen int64, rows int) Outcome {
	o := rd("c", "/v1/models/m", sent, recv, gen, `{"rows":`+strconv.Itoa(rows)+`}`)
	o.Kind = State
	return o
}

func ap(sent, recv, gen int64, appended, rows int) Outcome {
	return Outcome{Client: "w", Model: "m", Kind: Write, Method: http.MethodPost, Path: "/v1/models/m:append",
		Appended: appended, Sent: sent, Received: recv, Status: http.StatusOK, Gen: gen,
		Resp: []byte(`{"rows":` + strconv.Itoa(rows) + `,"swapped":true}`)}
}

func status(o Outcome, code int, retryAfter string) Outcome {
	o.Status, o.RetryAfter = code, retryAfter
	return o
}

func history(outs ...Outcome) *History {
	h := &History{}
	h.outs = outs
	return h
}

// TestCheckInvariants gives each invariant histories that violate it,
// which must be flagged under its counter, and a clean history, which
// must pass every invariant.
func TestCheckInvariants(t *testing.T) {
	traced := rd("c", "/q", 1, 2, 1, "a")
	cases := []struct {
		name    string
		counter func(*Counts) int
		bad     [][]Outcome
		good    []Outcome
	}{
		{"identity", func(c *Counts) int { return c.Identity },
			[][]Outcome{
				{rd("a", "/q", 1, 2, 1, "x"), rd("b", "/q", 3, 4, 1, "y")},
				{rd("a", "/q", 1, 2, 1, "x"), status(rd("b", "/q", 3, 4, 1, "x"), http.StatusNotFound, "")},
			},
			[]Outcome{rd("a", "/q", 1, 2, 1, "x"), rd("b", "/q", 3, 4, 1, "x"), rd("a", "/q", 7, 8, 2, "y"),
				ap(5, 6, 2, 1, 11), st(0, 1, 1, 10)}},
		{"stale", func(c *Counts) int { return c.Stale },
			[][]Outcome{{st(0, 1, 1, 10), ap(2, 3, 2, 1, 11), rd("c", "/q", 4, 5, 1, "x")}},
			[]Outcome{st(0, 1, 1, 10), ap(2, 3, 2, 1, 11), rd("c", "/q", 4, 5, 2, "x"),
				rd("d", "/q", 2, 5, 1, "y")}}, // sent before the ack: either generation is fine
		{"phantom", func(c *Counts) int { return c.Phantom },
			[][]Outcome{{rd("c", "/q", 1, 2, 2, "x"), ap(3, 4, 2, 1, 11)}},
			[]Outcome{rd("c", "/q", 1, 2, 1, "x"), ap(3, 4, 2, 1, 11), rd("c", "/q", 4, 6, 2, "y")}},
		{"monotonic", func(c *Counts) int { return c.Monotonic },
			[][]Outcome{
				// The write is sent at 1 and acked at 10: the client may
				// see either generation, but never 2 and then 1.
				{ap(1, 10, 2, 1, 11), rd("c", "/q", 2, 3, 2, "x"), rd("c", "/r", 4, 5, 1, "y")},
				{ap(1, 2, 3, 1, 11), ap(3, 4, 2, 1, 12)},
			},
			[]Outcome{ap(1, 10, 2, 1, 11), rd("c", "/q", 2, 3, 1, "x"), rd("c", "/r", 4, 5, 2, "y"),
				rd("d", "/q", 2, 3, 2, "z")}},
		{"generation header", func(c *Counts) int { return c.GenHeader },
			[][]Outcome{{rd("c", "/q", 1, 2, 0, "x")}},
			[]Outcome{rd("c", "/q", 1, 2, 1, "x"), {Client: "c", Method: http.MethodGet, Path: "/healthz", Sent: 3, Received: 4, Status: http.StatusOK}}},
		{"lost acked write", func(c *Counts) int { return c.LostWrite },
			[][]Outcome{
				{st(0, 1, 1, 10), ap(2, 3, 2, 2, 11)},                  // acked rows short of initial + appended
				{st(0, 1, 1, 10), ap(2, 3, 2, 2, 12), st(4, 5, 2, 11)}, // final rows differ from the ack
				{ap(2, 3, 2, 2, 12), ap(4, 5, 3, 1, 13), st(6, 7, 2, 12)},
				{st(0, 1, 1, 10), ap(2, 3, 3, 2, 12)},                     // skips generation 2
				{st(0, 1, 1, 10), ap(2, 3, 2, 1, 11), ap(4, 5, 4, 1, 12)}, // double-bumps past 3
				{st(0, 1, 1, 10), func() Outcome { // acked without swapping
					o := ap(2, 3, 2, 2, 12)
					o.Resp = []byte(`{"rows":12,"swapped":false}`)
					return o
				}()},
			},
			[]Outcome{st(0, 1, 1, 10), ap(2, 3, 2, 2, 12),
				func() Outcome { // generations are registry-wide: model n takes 3
					o := ap(4, 5, 3, 1, 21)
					o.Model, o.Path = "n", "/v1/models/n:append"
					return o
				}(),
				ap(6, 7, 4, 1, 13), st(8, 9, 4, 13),
				status(ap(10, 11, 0, 5, 0), http.StatusTooManyRequests, "1")}}, // a refused write promises nothing
		{"shedding", func(c *Counts) int { return c.Shedding },
			[][]Outcome{
				{status(rd("c", "/q", 1, 2, 1, "x"), http.StatusTooManyRequests, "")},
				{status(rd("c", "/q", 1, 2, 1, "x"), http.StatusServiceUnavailable, "0")},
				{status(rd("c", "/q", 1, 2, 1, "x"), http.StatusTooManyRequests, "1.5")},
				{status(rd("c", "/q", 1, 2, 1, "x"), http.StatusInternalServerError, "1")},
				{status(rd("c", "/q", 1, 2, 0, ""), 0, "")},
				{rd("c", "/v1/models/m:query", 1, 2, 1, `{"batch":[{"dominators":{}},{"error":{"kind":"bad_request","message":"bad item"}}]}`)},
			},
			[]Outcome{status(rd("c", "/q", 1, 2, 1, "x"), http.StatusTooManyRequests, "1"),
				status(rd("c", "/q", 3, 4, 1, "x"), http.StatusServiceUnavailable, "30"),
				rd("c", "/v1/models/m:query", 5, 6, 1, `{"batch":[{"dominators":{}}]}`)}},
		{"trace id", func(c *Counts) int { return c.TraceID },
			[][]Outcome{
				{func() Outcome { o := traced; o.TraceID = strings.Repeat("0", 32); return o }()},
				{func() Outcome { o := traced; o.TraceID = strings.Repeat("A", 32); return o }()},
				{func() Outcome { o := traced; o.TraceID = strings.Repeat("a", 31); return o }()},
			},
			[]Outcome{func() Outcome { o := traced; o.TraceID = "4bf92f3577b34da6a3ce929d0e0e4736"; return o }()}},
	}
	for _, tc := range cases {
		for i, bad := range tc.bad {
			r := history(bad...).Check()
			if tc.counter(&r.Violations) == 0 {
				t.Errorf("%s: bad history %d not flagged: %+v", tc.name, i, r.Violations)
			}
		}
		if err := history(tc.good...).Check().Err(); err != nil {
			t.Errorf("%s: clean history flagged: %v", tc.name, err)
		}
	}
}

// TestCheckAlias: a generation declared an alias of another shares
// its identity rule, so answers that differ across the two are
// flagged; undeclared, they are two generations and may differ.
func TestCheckAlias(t *testing.T) {
	put := Outcome{Client: "w", Model: "m", Kind: Write, Method: http.MethodPut, Path: "/v1/models/m",
		Sent: 3, Received: 4, Status: http.StatusOK, Gen: 2, Resp: []byte(`{"rows":10}`)}
	h := history(st(0, 1, 1, 10), rd("c", "/q", 1, 2, 1, "x"), put, rd("c", "/q", 5, 6, 2, "y"))
	if err := h.Check().Err(); err != nil {
		t.Fatalf("without an alias: %v", err)
	}
	h.Alias("m", 2, 1)
	if r := h.Check(); r.Violations.Identity != 1 {
		t.Fatalf("aliased generations answered differently but identity = %d", r.Violations.Identity)
	}
}

// TestHistoryRecords: Do fills the outcome from a live response and
// ticks the clock around it; Serve keeps a Gen the caller set.
func TestHistoryRecords(t *testing.T) {
	hd := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Model-Generation", "7")
		w.Header().Set("X-Trace-Id", "4bf92f3577b34da6a3ce929d0e0e4736")
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(r.Header.Get("Content-Type")))
	})
	ts := httptest.NewServer(hd)
	defer ts.Close()
	h := &History{}
	o := h.Do(ts.Client(), ts.URL, Outcome{Model: "m", Method: http.MethodPost, Path: "/x", Body: []byte("{}")})
	if o.Status != http.StatusTooManyRequests || o.Gen != 7 || o.RetryAfter != "2" || o.TraceID == "" ||
		string(o.Resp) != "application/json" || o.Sent >= o.Received {
		t.Fatalf("Do recorded %+v", o)
	}
	s := h.Serve(hd, Outcome{Model: "m", Method: http.MethodPut, Path: "/x", Body: []byte("snap"), Gen: 3})
	if s.Gen != 3 || string(s.Resp) != "application/octet-stream" || s.Sent <= o.Received {
		t.Fatalf("Serve recorded %+v", s)
	}
	if r := h.Check(); r.Outcomes != 2 || r.Shed != 2 || r.Traced != 2 || r.Err() != nil {
		t.Fatalf("report %+v", r)
	}
}
