package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"hypermine/internal/benchfix"
)

// oversizeJSON answers as a peer whose JSON document passes limit:
// "declared" declares limit+1 bytes and sends none, so only a reader
// that trusts the header waits or allocates for it; "chunked" streams
// an object of 64*limit bytes without a length until the reader hangs
// up.
func oversizeJSON(mode string, limit int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if mode == "declared" {
			w.Header().Set("Content-Length", strconv.FormatInt(limit+1, 10))
			w.WriteHeader(http.StatusOK)
			return
		}
		if _, err := w.Write([]byte(`{"node":"p","models":{`)); err != nil {
			return
		}
		for i, sent := 0, int64(0); sent < 64*limit; i++ {
			entry := fmt.Sprintf(`"m%07d":1,`, i)
			if _, err := w.Write([]byte(entry)); err != nil {
				return
			}
			sent += int64(len(entry))
			if i%1024 == 0 {
				w.(http.Flusher).Flush()
			}
		}
	}
}

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// chunkedBound is the lowered bound of the chunked cases: small enough
// that a reader which buffered the whole 64x body would pass the
// allocation bar below.
const chunkedBound = 16 << 10

// peerJSONAllocBar is the most a refused read may allocate, an eighth
// of maxPeerJSONBytes: neither a declared nor a chunked oversize body
// makes the reader allocate the bound.
const peerJSONAllocBar = maxPeerJSONBytes / 8

// TestGossipDigestBounded: the gossip client refuses a peer's digest
// declared over maxPeerJSONBytes before reading it, and a chunked one
// once it passes the bound, with a *http.MaxBytesError and without
// allocating the bound.
func TestGossipDigestBounded(t *testing.T) {
	for _, mode := range []string{"declared", "chunked"} {
		limit := int64(maxPeerJSONBytes)
		if mode == "chunked" {
			limit = chunkedBound
		}
		n, _ := soloNode(t, oversizeJSON(mode, limit))
		n.maxDigest = limit
		var err error
		got := allocatedBy(func() { err = n.gossipWith(context.Background(), "p") })
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			t.Errorf("%s digest over a %d-byte bound: %v, want a MaxBytesError", mode, limit, err)
		}
		if got > peerJSONAllocBar {
			t.Errorf("%s digest over a %d-byte bound allocated %d bytes, want <= %d", mode, limit, got, peerJSONAllocBar)
		}
	}
}

// TestRouterListingBounded: the router reads a member's /v1/models
// listing under the same bound and refusal rules, and answers its own
// listing without the refused member's models.
func TestRouterListingBounded(t *testing.T) {
	for _, mode := range []string{"declared", "chunked"} {
		limit := int64(maxPeerJSONBytes)
		if mode == "chunked" {
			limit = chunkedBound
		}
		ts := httptest.NewServer(oversizeJSON(mode, limit))
		rt, err := NewRouter(RouterConfig{Peers: map[string]string{"a": ts.URL}, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		rt.maxListing = limit
		got := allocatedBy(func() { _, err = rt.listModels(context.Background(), "a") })
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			t.Errorf("%s listing over a %d-byte bound: %v, want a MaxBytesError", mode, limit, err)
		}
		if got > peerJSONAllocBar {
			t.Errorf("%s listing over a %d-byte bound allocated %d bytes, want <= %d", mode, limit, got, peerJSONAllocBar)
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
		if rec.Code != http.StatusOK || rec.Body.String() != "{\"models\":[]}\n" {
			t.Errorf("%s: router listing %d %q, want an empty 200", mode, rec.Code, rec.Body)
		}
		ts.Close()
	}
}

// TestReplicateAckBounded: a push reads the peer's ack of its snapshot
// under maxReplicateAckBytes with the same refusal rules, and a
// refused ack counts the push as failed.
func TestReplicateAckBounded(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []string{"declared", "chunked"} {
		limit := int64(maxReplicateAckBytes)
		if mode == "chunked" {
			limit = chunkedBound
		}
		n, reg := soloNode(t, oversizeJSON(mode, limit))
		n.maxAck = limit
		if _, err := reg.Load("m", benchfix.ModelWorkload(4, 20)); err != nil {
			t.Fatal(err)
		}
		snap := snapshotBytes(t, 20)
		var err error
		got := allocatedBy(func() { err = n.pushSnapshot(ctx, "p", "m", 1, snap) })
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			t.Errorf("%s ack over a %d-byte bound: %v, want a MaxBytesError", mode, limit, err)
		}
		if got > peerJSONAllocBar {
			t.Errorf("%s ack over a %d-byte bound allocated %d bytes, want <= %d", mode, limit, got, peerJSONAllocBar)
		}
		failed := n.replPushErrs.Load()
		n.replicate(ctx, "m")
		if got := n.replPushErrs.Load() - failed; got != 1 {
			t.Errorf("%s ack over the bound: %d failed pushes counted, want 1", mode, got)
		}
	}
}
