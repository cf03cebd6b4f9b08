package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hypermine/internal/core"
	"hypermine/internal/registry"
	"hypermine/internal/server"
	"hypermine/internal/telemetry"
)

// maxReplicateBytes bounds a replicated snapshot body, pushed or
// pulled, matching the server's own PUT bound.
const maxReplicateBytes = 1 << 30

// maxPeerJSONBytes bounds a JSON document one fleet process reads from
// another: a gossip digest, at both ends of a round, and a member's
// model listing read by the router.
const maxPeerJSONBytes = 8 << 20

// maxReplicateAckBytes bounds a peer's JSON ack of a replicated
// snapshot: a generation and a flag.
const maxReplicateAckBytes = 1 << 20

// decodePeerJSON decodes the JSON body of a peer's response into v,
// reading at most limit bytes: a body declared longer is refused before
// a byte of it is read, an undeclared one once byte limit+1 arrives,
// either with *http.MaxBytesError. Memory follows the bytes that
// arrive, never the bound.
func decodePeerJSON(resp *http.Response, limit int64, v any) error {
	if resp.ContentLength > limit {
		return &http.MaxBytesError{Limit: limit}
	}
	return json.NewDecoder(http.MaxBytesReader(nil, resp.Body, limit)).Decode(v)
}

// NodeConfig configures one fleet member.
type NodeConfig struct {
	// Name is this node's ring name; it must not appear in Peers.
	Name string
	// Peers maps the other nodes' ring names to their base URLs
	// (scheme://host:port, no trailing slash).
	Peers map[string]string
	// Replicas is the replication factor R over the whole membership
	// (this node + peers); 0 means DefaultReplicas.
	Replicas int
	// VNodes is the virtual-node count; 0 means DefaultVNodes.
	VNodes int
	// GossipInterval is the period of the background gossip loop.
	// <= 0 disables the loop; gossip then runs only when Gossip is
	// called explicitly (the deterministic sim drives it that way).
	GossipInterval time.Duration
	// Client is the HTTP client for replication pushes, gossip
	// exchanges, and snapshot pulls. Nil uses a dedicated client with
	// sane timeouts.
	Client *http.Client
	// Logger receives structured fleet events. Nil discards.
	Logger *slog.Logger
}

// peerState is the gossip-observed condition of one peer.
type peerState struct {
	ok     atomic.Bool  // last contact succeeded
	tried  atomic.Bool  // contacted at least once
	synced atomic.Bool  // one full gossip exchange completed since this process started
	lastNs atomic.Int64 // monotonic-ish wall clock of last successful contact
}

// Node turns a single-process hypermined (registry + server) into a
// fleet member: it owns a shard of the model-name space per the
// consistent-hash ring, synchronously replicates every accepted write
// (PUT snapshot, :append) to the other owners before acknowledging,
// serves the /fleet/ replication + gossip endpoints, and runs the
// gossip loop that lets a lagging or freshly restarted replica detect
// and repair missing generations.
type Node struct {
	cfg    NodeConfig
	reg    *registry.Registry
	srv    *server.Server
	inner  http.Handler
	mux    *http.ServeMux
	ring   *Ring
	client *http.Client
	logger *slog.Logger

	// maxSnapshot bounds a snapshot body pushed to or pulled by this
	// node: maxReplicateBytes, lowered only by tests. maxDigest bounds
	// a gossip digest sent to or received by it the same way:
	// maxPeerJSONBytes. maxAck bounds the ack of a pushed snapshot:
	// maxReplicateAckBytes.
	maxSnapshot int64
	maxDigest   int64
	maxAck      int64

	peers     map[string]*peerState // keyed by peer name; set at construction
	peerNames []string              // sorted, for deterministic iteration
	nextPeer  atomic.Int64          // round-robin cursor for gossip

	gossipRounds *telemetry.Counter
	replPushes   *telemetry.Counter
	replPushErrs *telemetry.Counter
	replPulls    *telemetry.Counter
	pullSkips    *telemetry.Counter
	replHist     *telemetry.Histogram

	converged atomic.Bool // every peer synced at least once (or no peers)

	// mu guards the delete-tombstone and eviction-marker maps. Both are
	// consulted by gossip so it neither resurrects a deleted model nor
	// re-pulls one the local LRU just evicted (which would thrash the
	// resident-cost bound forever).
	mu         sync.Mutex
	tombs      map[string]int64 // deleted model -> generation the delete observed
	evictedGen map[string]int64 // LRU-evicted model -> generation at eviction

	started  atomic.Bool
	stopOnce sync.Once
	doneOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewNode wires a fleet node around an existing registry and server.
// It registers the fleet counters in the server's shared telemetry
// registry (so the /stats–/metrics parity contract covers them), adds
// the "fleet" /stats section and the labeled peer-state gauge, and
// installs the readiness probe (ready after a successful gossip
// exchange with every peer).
// Call Start to run the background gossip loop, Handler for the
// fleet-aware HTTP handler, and Stop on shutdown.
func NewNode(cfg NodeConfig, reg *registry.Registry, srv *server.Server) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("fleet: node name required")
	}
	if _, ok := cfg.Peers[cfg.Name]; ok {
		return nil, fmt.Errorf("fleet: node %q lists itself as a peer", cfg.Name)
	}
	members := make([]string, 0, len(cfg.Peers)+1)
	members = append(members, cfg.Name)
	for name, url := range cfg.Peers {
		if name == "" || url == "" {
			return nil, errors.New("fleet: peer entries need both name and url")
		}
		members = append(members, name)
	}
	sort.Strings(members)
	n := &Node{
		cfg:         cfg,
		reg:         reg,
		srv:         srv,
		inner:       srv.Handler(),
		ring:        NewRing(cfg.VNodes, cfg.Replicas, members),
		client:      cfg.Client,
		logger:      cfg.Logger,
		maxSnapshot: maxReplicateBytes,
		maxDigest:   maxPeerJSONBytes,
		maxAck:      maxReplicateAckBytes,
		peers:       make(map[string]*peerState, len(cfg.Peers)),
		tombs:       make(map[string]int64),
		evictedGen:  make(map[string]int64),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	if n.client == nil {
		n.client = &http.Client{Timeout: 30 * time.Second}
	}
	if n.logger == nil {
		n.logger = slog.New(slog.DiscardHandler)
	}
	for name := range cfg.Peers {
		n.peers[name] = &peerState{}
		n.peerNames = append(n.peerNames, name)
	}
	sort.Strings(n.peerNames)

	tel := srv.Telemetry()
	n.gossipRounds = tel.Counter("hypermined_gossip_rounds_total", "gossip_rounds",
		"Gossip rounds initiated by this node (one peer exchange each).")
	n.replPushes = tel.Counter("hypermined_replication_pushes_total", "replication_pushes",
		"Snapshot replication pushes to peer replicas after accepted writes.")
	n.replPushErrs = tel.Counter("hypermined_replication_push_errors_total", "replication_push_errors",
		"Replication pushes that failed (gossip repairs the lag later).")
	n.replPulls = tel.Counter("hypermined_replication_pulls_total", "replication_pulls",
		"Snapshots pulled from peers because gossip showed this replica lagging.")
	n.pullSkips = tel.Counter("hypermined_gossip_pull_skips_total", "gossip_pull_skips",
		"Gossip pulls skipped because the model was deleted (tombstone) or locally LRU-evicted.")
	n.replHist = tel.Histogram("hypermined_replication_seconds",
		"Wall time to replicate one accepted write to all peer replicas (serialize + push).", "")

	reg.OnEvict(n.noteEvicted)
	srv.SetReadiness(n.Ready)
	srv.RegisterStatsSection("fleet", n.statsSection)
	srv.RegisterMetricsExtra(n.writeMetrics)

	n.mux = http.NewServeMux()
	n.mux.HandleFunc("POST /fleet/gossip", n.handleGossip)
	n.mux.HandleFunc("GET /fleet/snapshot/{name}", n.handleSnapshot)
	n.mux.HandleFunc("PUT /fleet/replicate/{name}", n.handleReplicate)
	n.mux.HandleFunc("DELETE /fleet/replicate/{name}", n.handleReplicateDelete)
	n.mux.HandleFunc("/", n.handleAPI)

	if len(n.peers) == 0 {
		n.converged.Store(true)
	}
	return n, nil
}

// Name returns the node's ring name.
func (n *Node) Name() string { return n.cfg.Name }

// Ring returns the (static-membership) consistent-hash ring.
func (n *Node) Ring() *Ring { return n.ring }

// Ready implements the readiness probe: a node is ready once it has
// completed a successful gossip exchange with EVERY peer since this
// process started. One arbitrary peer is not enough — under
// pull-iff-owner a non-owner advertises nothing about this node's
// shards, so a freshly restarted owner that only spoke to a non-owner
// could accept a write at an already-used generation and fork history.
// Syncing with all peers guarantees the registry's generation counter
// has been raised past everything any replica of any owned shard has
// seen. A node with no peers is trivially ready.
func (n *Node) Ready() error {
	if !n.converged.Load() {
		return errors.New("fleet: gossip not yet converged with every peer")
	}
	return nil
}

// markSynced records a completed gossip exchange with peer and flips
// the node converged once every peer has synced at least once.
func (n *Node) markSynced(peer string) {
	ps := n.peers[peer]
	if ps == nil {
		return
	}
	ps.synced.Store(true)
	if n.converged.Load() {
		return
	}
	for _, name := range n.peerNames {
		if !n.peers[name].synced.Load() {
			return
		}
	}
	n.converged.Store(true)
}

// Handler returns the fleet-aware HTTP handler: /fleet/ endpoints plus
// the underlying server API with write replication spliced in.
func (n *Node) Handler() http.Handler { return n.mux }

// Start runs the background gossip loop when GossipInterval > 0; it
// returns immediately. With a non-positive interval (the deterministic
// sim), the caller drives Gossip explicitly. Start is idempotent.
func (n *Node) Start() {
	if !n.started.CompareAndSwap(false, true) {
		return
	}
	if n.cfg.GossipInterval <= 0 {
		n.closeDone()
		return
	}
	go n.gossipLoop()
}

// Stop terminates the gossip loop and waits for it to exit. It is safe
// to call any number of times, and on a node whose Start was never
// invoked (a caller bailing out of its own setup must not deadlock).
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	if !n.started.Load() {
		// No loop was ever spawned, so nothing else will release done.
		n.closeDone()
	}
	<-n.done
}

func (n *Node) closeDone() {
	n.doneOnce.Do(func() { close(n.done) })
}

func (n *Node) gossipLoop() {
	defer n.closeDone()
	select {
	case <-n.stop: // Stop raced Start; never gossip
		return
	default:
	}
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	// Readiness gates on a successful exchange with every peer, so run
	// full rounds until converged (starting immediately, not an interval
	// later), then fall back to cheaper single-peer rounds.
	n.GossipAll(context.Background())
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			if n.converged.Load() {
				n.Gossip(context.Background())
			} else {
				n.GossipAll(context.Background())
			}
		}
	}
}

// digest is the gossip exchange unit: who is speaking, the generation
// of every model it serves, and the tombstones of models it has seen
// deleted (so a delete propagates through gossip instead of being
// resurrected by a replica that missed the replicated delete).
type digest struct {
	Node    string           `json:"node"`
	Models  map[string]int64 `json:"models"`
	Deleted map[string]int64 `json:"deleted,omitempty"`
}

// localDigest snapshots this node's {model: generation} vector plus
// its delete tombstones.
func (n *Node) localDigest() digest {
	d := digest{Node: n.cfg.Name, Models: map[string]int64{}}
	for _, name := range n.reg.Names() {
		if sv := n.reg.Peek(name); sv != nil {
			d.Models[name] = sv.Generation()
			sv.Release()
		}
	}
	n.mu.Lock()
	if len(n.tombs) > 0 {
		d.Deleted = make(map[string]int64, len(n.tombs))
		for name, gen := range n.tombs {
			d.Deleted[name] = gen
		}
	}
	n.mu.Unlock()
	return d
}

// Gossip runs one push-pull round with the next peer (round-robin):
// send the local digest, receive the peer's, and synchronously pull
// any owned model the peer serves at a newer generation. It returns
// the name of the peer contacted ("" with no peers) and the exchange
// error. The node flips converged (ready for writes) only once every
// peer has completed such an exchange.
func (n *Node) Gossip(ctx context.Context) (string, error) {
	if len(n.peerNames) == 0 {
		n.converged.Store(true)
		return "", nil
	}
	peer := n.peerNames[int(n.nextPeer.Add(1)-1)%len(n.peerNames)]
	err := n.gossipWith(ctx, peer)
	n.gossipRounds.Inc()
	n.notePeer(peer, err == nil)
	if err == nil {
		n.markSynced(peer)
	}
	return peer, err
}

// GossipAll runs one round against every peer (the sim uses it to
// force convergence at a barrier; the background loop uses it until
// the node converges); it reports the first error.
func (n *Node) GossipAll(ctx context.Context) error {
	var first error
	for _, peer := range n.peerNames {
		err := n.gossipWith(ctx, peer)
		n.gossipRounds.Inc()
		n.notePeer(peer, err == nil)
		if err == nil {
			n.markSynced(peer)
		} else if first == nil {
			first = err
		}
	}
	if len(n.peerNames) == 0 {
		n.converged.Store(true)
	}
	return first
}

func (n *Node) gossipWith(ctx context.Context, peer string) error {
	base := n.cfg.Peers[peer]
	body, err := json.Marshal(n.localDigest())
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/fleet/gossip", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("fleet: gossip with %s: %s", peer, resp.Status)
	}
	var theirs digest
	if err := decodePeerJSON(resp, n.maxDigest, &theirs); err != nil {
		return err
	}
	return n.pullLagging(ctx, peer, theirs)
}

// pullLagging compares a peer digest against local state: it applies
// the peer's delete tombstones first (a delete must win over the pull
// that would resurrect it), then pulls every model this node owns but
// serves at an older generation (or not at all). Pulls are
// synchronous: when this returns nil the node is caught up to
// everything the digest advertised.
func (n *Node) pullLagging(ctx context.Context, peer string, theirs digest) error {
	deleted := make([]string, 0, len(theirs.Deleted))
	for name := range theirs.Deleted {
		deleted = append(deleted, name)
	}
	sort.Strings(deleted)
	for _, name := range deleted {
		if !n.ring.Owns(name, n.cfg.Name) {
			continue
		}
		if n.noteDeleted(name, theirs.Deleted[name]) {
			n.logger.LogAttrs(ctx, slog.LevelInfo, "fleet delete learned via gossip",
				slog.String("model", name), slog.String("peer", peer),
				slog.Int64("generation", theirs.Deleted[name]))
		}
	}

	names := make([]string, 0, len(theirs.Models))
	for name := range theirs.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	var firstErr error
	for _, name := range names {
		gen := theirs.Models[name]
		if !n.ring.Owns(name, n.cfg.Name) {
			continue // pull-iff-owner: don't mirror shards we don't serve
		}
		var local int64
		if sv := n.reg.Peek(name); sv != nil {
			local = sv.Generation()
			sv.Release()
		}
		if local >= gen {
			continue
		}
		if n.skipPull(name, gen) {
			// Deleted at this generation or newer, or just LRU-evicted
			// here: pulling would resurrect the model or thrash the
			// resident-cost bound.
			n.pullSkips.Inc()
			continue
		}
		if err := n.pullSnapshot(ctx, peer, name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// noteDeleted records a delete of name observed at generation gen: the
// tombstone is kept (and gossiped) until the name is republished past
// gen, the eviction marker is dropped (a delete supersedes it), and
// the registry's generation counter is raised so later local writes
// number strictly past the deleted lineage. It reports whether a
// resident model at or below gen was actually removed.
func (n *Node) noteDeleted(name string, gen int64) bool {
	if gen <= 0 {
		return false
	}
	n.mu.Lock()
	if n.tombs[name] < gen {
		n.tombs[name] = gen
	}
	delete(n.evictedGen, name)
	n.mu.Unlock()
	return n.reg.RemoveGeneration(name, gen)
}

// tombGen returns the tombstone generation recorded for name (0 =
// none).
func (n *Node) tombGen(name string) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tombs[name]
}

// notePublished clears the delete tombstone and eviction marker for
// name once it is (re)published at a generation past them: the lineage
// restarted, so gossip may advertise and pull it again.
func (n *Node) notePublished(name string, gen int64) {
	n.mu.Lock()
	if t, ok := n.tombs[name]; ok && gen > t {
		delete(n.tombs, name)
	}
	if e, ok := n.evictedGen[name]; ok && gen > e {
		delete(n.evictedGen, name)
	}
	n.mu.Unlock()
}

// noteEvicted is the registry eviction hook: it marks name so gossip
// does not immediately pull the model back (re-violating the
// resident-cost bound the eviction just enforced). A write at a newer
// generation clears the marker via notePublished.
func (n *Node) noteEvicted(name string, gen int64) {
	n.mu.Lock()
	if n.evictedGen[name] < gen {
		n.evictedGen[name] = gen
	}
	n.mu.Unlock()
}

// skipPull reports whether gossip must not pull name at gen: it is
// tombstoned (deleted) or was LRU-evicted locally at that generation
// or newer.
func (n *Node) skipPull(name string, gen int64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if gen <= n.tombs[name] {
		return true
	}
	e, ok := n.evictedGen[name]
	return ok && gen <= e
}

// pullSnapshot fetches a model snapshot from a peer and publishes it
// under the generation the peer serves it at.
func (n *Node) pullSnapshot(ctx context.Context, peer, name string) error {
	base := n.cfg.Peers[peer]
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/fleet/snapshot/"+url.PathEscape(name), nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("fleet: pull %s from %s: %s", name, peer, resp.Status)
	}
	gen, err := strconv.ParseInt(resp.Header.Get("X-Model-Generation"), 10, 64)
	if err != nil || gen <= 0 {
		return fmt.Errorf("fleet: pull %s from %s: bad generation header", name, peer)
	}
	raw, err := server.ReadBody(resp.Body, resp.ContentLength, n.maxSnapshot)
	if err != nil {
		return fmt.Errorf("fleet: pull %s from %s: %w", name, peer, err)
	}
	m, err := core.DecodeSnapshot(raw)
	if err != nil {
		return fmt.Errorf("fleet: pull %s from %s: %w", name, peer, err)
	}
	info, err := n.reg.LoadGenerationContext(ctx, name, m, gen)
	if err != nil {
		return err
	}
	n.notePublished(name, info.Generation)
	n.replPulls.Inc()
	n.logger.LogAttrs(ctx, slog.LevelInfo, "fleet pulled model",
		slog.String("model", name), slog.String("peer", peer),
		slog.Int64("generation", gen), slog.Bool("stale", info.Stale))
	return nil
}

// notePeer records the outcome of a peer contact for the peer-state
// gauge and /stats.
func (n *Node) notePeer(peer string, ok bool) {
	ps := n.peers[peer]
	if ps == nil {
		return
	}
	ps.tried.Store(true)
	ps.ok.Store(ok)
	if ok {
		ps.lastNs.Store(time.Now().UnixNano())
	}
}

// handleGossip is the receiving half of a push-pull round: pull
// everything the sender has newer (for shards we own) before
// responding with our own digest, so one exchange converges both
// parties on the union of their knowledge.
func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	var theirs digest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, n.maxDigest)).Decode(&theirs); err != nil {
		http.Error(w, "bad digest: "+err.Error(), http.StatusBadRequest)
		return
	}
	if _, known := n.cfg.Peers[theirs.Node]; known {
		// Sender is a configured peer: catch up from it synchronously.
		// Errors are non-fatal — the reply digest still lets the sender
		// catch up from us, and the next round retries the pull. Only a
		// fully completed catch-up counts toward this node's own
		// convergence (it is equivalent to having initiated the round).
		if err := n.pullLagging(r.Context(), theirs.Node, theirs); err != nil {
			n.logger.LogAttrs(r.Context(), slog.LevelWarn, "fleet gossip pull failed",
				slog.String("peer", theirs.Node), slog.String("error", err.Error()))
		} else {
			n.markSynced(theirs.Node)
		}
		n.notePeer(theirs.Node, true)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(n.localDigest())
}

// handleSnapshot streams the named model as a binary snapshot with its
// serving generation in X-Model-Generation — the pull half of both
// replication repair and gossip catch-up.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sv := n.reg.Peek(name)
	if sv == nil {
		http.Error(w, "unknown model "+strconv.Quote(name), http.StatusNotFound)
		return
	}
	defer sv.Release()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Model-Generation", strconv.FormatInt(sv.Generation(), 10))
	lw := &lengthWriter{ResponseWriter: w}
	if err := core.WriteSnapshot(lw, sv.Model(), core.SaveOptions{}); err != nil {
		if !lw.sized {
			// The sizing pass failed: nothing was written yet.
			http.Error(w, "snapshot: "+err.Error(), http.StatusInternalServerError)
			return
		}
		n.logger.LogAttrs(r.Context(), slog.LevelWarn, "fleet snapshot stream failed",
			slog.String("model", name), slog.String("error", err.Error()))
	}
}

// lengthWriter is a response writer whose Grow, which WriteSnapshot
// calls with the snapshot's exact size before the first byte, declares
// that size as the Content-Length: the model is sized once and written
// once.
type lengthWriter struct {
	http.ResponseWriter
	sized bool
}

func (w *lengthWriter) Grow(n int) {
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.sized = true
}

// handleReplicate is the receiving half of a replication push: decode
// the snapshot and publish it under the originating generation named
// by X-Model-Generation. Stale deliveries are acknowledged as no-ops
// (idempotent), so push retries and gossip races are harmless.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	gen, err := strconv.ParseInt(r.Header.Get("X-Model-Generation"), 10, 64)
	if err != nil || gen <= 0 {
		http.Error(w, "missing or bad X-Model-Generation", http.StatusBadRequest)
		return
	}
	if t := n.tombGen(name); gen <= t {
		// A push at or below the tombstone replays deleted history; the
		// stale ack (with the tombstone generation) tells the origin it
		// is behind, never that the write landed.
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Model-Generation", strconv.FormatInt(t, 10))
		_ = json.NewEncoder(w).Encode(map[string]any{
			"name": name, "generation": t, "stale": true,
		})
		return
	}
	raw, err := server.ReadBody(http.MaxBytesReader(w, r.Body, n.maxSnapshot), r.ContentLength, n.maxSnapshot)
	var m *core.Model
	if err == nil {
		m, err = core.DecodeSnapshot(raw)
	}
	if err != nil {
		http.Error(w, "snapshot: "+err.Error(), http.StatusBadRequest)
		return
	}
	info, err := n.reg.LoadGenerationContext(r.Context(), name, m, gen)
	if err != nil {
		http.Error(w, "load: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if !info.Stale {
		n.notePublished(name, info.Generation)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Model-Generation", strconv.FormatInt(info.Generation, 10))
	_ = json.NewEncoder(w).Encode(map[string]any{
		"name": name, "generation": info.Generation, "stale": info.Stale,
	})
}

// handleReplicateDelete is the receiving half of delete replication:
// record the tombstone and remove the local replica unless a newer
// write already superseded the delete (newest generation wins).
func (n *Node) handleReplicateDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	gen, err := strconv.ParseInt(r.Header.Get("X-Model-Generation"), 10, 64)
	if err != nil || gen <= 0 {
		http.Error(w, "missing or bad X-Model-Generation", http.StatusBadRequest)
		return
	}
	removed := n.noteDeleted(name, gen)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"name": name, "generation": gen, "removed": removed,
	})
}

// writeTarget classifies an API request as a fleet-replicated write
// and extracts the model name: PUT /v1/models/{name},
// POST /v1/models/{name}:append, and DELETE /v1/models/{name} (a
// delete must reach every owner, or the surviving replica's gossip
// digest resurrects the model within one round). Everything else
// returns "".
func writeTarget(r *http.Request) string {
	name, rest := modelPath(r)
	switch r.Method {
	case http.MethodPut, http.MethodDelete:
		if rest == "" {
			return name
		}
	case http.MethodPost:
		if rest == ":append" {
			return name
		}
	}
	return ""
}

// bufResponse buffers an inner handler's response so replication can
// run between the write being applied and the client seeing the ack.
type bufResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newBufResponse() *bufResponse {
	return &bufResponse{header: make(http.Header), status: http.StatusOK}
}

func (b *bufResponse) Header() http.Header         { return b.header }
func (b *bufResponse) WriteHeader(code int)        { b.status = code }
func (b *bufResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// flush copies the buffered response to the real writer.
func (b *bufResponse) flush(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	w.WriteHeader(b.status)
	_, _ = w.Write(b.body.Bytes())
}

// handleAPI serves the underlying single-process API, splicing
// synchronous replication into accepted writes: the inner handler's
// response is buffered, and only after the resulting snapshot (or
// delete) has been pushed to the model's other owners does the
// acknowledgement reach the client. A peer push that fails because the
// peer is down is counted and logged, not fatal — the write is durable
// on this node and gossip repairs the lagging replica; the ack
// therefore means "applied here, replication attempted everywhere".
// The one push outcome that IS fatal: a peer stale-rejecting the write
// because it already serves a newer generation means this node forked
// history, so the client gets a 409 instead of an ack (the local fork
// is then corrected by the next gossip pull).
func (n *Node) handleAPI(w http.ResponseWriter, r *http.Request) {
	name := writeTarget(r)
	if name == "" {
		n.inner.ServeHTTP(w, r)
		return
	}
	if err := n.Ready(); err != nil {
		// A restarted replica that has not gossiped with every peer yet
		// may lag the fleet; accepting a write here could assign an
		// already-used generation and fork the model. Refuse explicitly —
		// the X-Fleet-Not-Ready marker tells the router the write was
		// definitely not applied, so failing over to a converged owner
		// is unambiguous and safe.
		w.Header().Set("X-Fleet-Not-Ready", "1")
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"error\":%q}\n", "fleet: node not ready for writes: "+err.Error())
		return
	}
	isDelete := r.Method == http.MethodDelete
	var preGen int64
	if isDelete {
		// The generation the delete observed must be captured before the
		// inner handler unloads the model; it becomes the tombstone.
		if sv := n.reg.Peek(name); sv != nil {
			preGen = sv.Generation()
			sv.Release()
		}
	}
	buf := newBufResponse()
	n.inner.ServeHTTP(buf, r)
	if buf.status >= 200 && buf.status < 300 {
		if isDelete {
			n.replicateDelete(r.Context(), name, preGen)
		} else if err := n.replicate(r.Context(), name); err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintf(w, "{\"error\":%q}\n", "fleet: write not acknowledged, a replica serves a newer generation: "+err.Error())
			return
		}
	}
	buf.flush(w)
}

// errReplicaAhead marks a replication push that a peer stale-rejected
// because it already serves a strictly newer generation: the local
// write forked history and must not be acknowledged.
var errReplicaAhead = errors.New("fleet: replica ahead of local write")

// otherOwners returns name's replica set minus this node.
func (n *Node) otherOwners(name string) []string {
	var targets []string
	for _, o := range n.ring.Owners(name) {
		if o != n.cfg.Name {
			targets = append(targets, o)
		}
	}
	return targets
}

// replicate pushes the current snapshot of name to every other owner
// in its replica set. Unreachable peers are non-fatal (gossip repairs
// them); a peer that stale-rejects the push at a newer generation is
// fatal and reported as an errReplicaAhead error so the caller refuses
// the client ack.
func (n *Node) replicate(ctx context.Context, name string) error {
	targets := n.otherOwners(name)
	sv := n.reg.Peek(name)
	if sv == nil {
		return nil // removed in the races between ack and replication; nothing to push
	}
	gen := sv.Generation()
	// Encode once, into a buffer WriteSnapshot grows to the snapshot's
	// exact size, and push the same bytes to every target.
	var snap bytes.Buffer
	err := core.WriteSnapshot(&snap, sv.Model(), core.SaveOptions{})
	sv.Release()
	if err != nil {
		n.replPushErrs.Inc()
		n.logger.LogAttrs(ctx, slog.LevelError, "fleet replication serialize failed",
			slog.String("model", name), slog.String("error", err.Error()))
		return nil
	}
	n.notePublished(name, gen)
	if len(targets) == 0 {
		return nil
	}
	var forkErr error
	start := time.Now()
	for _, peer := range targets {
		if err := n.pushSnapshot(ctx, peer, name, gen, snap.Bytes()); err != nil {
			n.replPushErrs.Inc()
			if errors.Is(err, errReplicaAhead) {
				forkErr = err
				n.notePeer(peer, true) // the peer answered; the WRITE is what failed
				n.logger.LogAttrs(ctx, slog.LevelError, "fleet replication stale-rejected",
					slog.String("model", name), slog.String("peer", peer),
					slog.Int64("generation", gen), slog.String("error", err.Error()))
				continue
			}
			n.notePeer(peer, false)
			n.logger.LogAttrs(ctx, slog.LevelWarn, "fleet replication push failed",
				slog.String("model", name), slog.String("peer", peer),
				slog.Int64("generation", gen), slog.String("error", err.Error()))
			continue
		}
		n.replPushes.Inc()
		n.notePeer(peer, true)
	}
	n.replHist.Observe(time.Since(start))
	return forkErr
}

// replicateDelete records the local tombstone and pushes the delete to
// every other owner, so neither a replication race nor a gossip round
// can resurrect the model from a surviving replica. preGen is the
// generation the model served at when the delete was accepted (0 = it
// was not resident here; nothing to propagate).
func (n *Node) replicateDelete(ctx context.Context, name string, preGen int64) {
	if preGen <= 0 {
		return
	}
	n.noteDeleted(name, preGen)
	targets := n.otherOwners(name)
	if len(targets) == 0 {
		return
	}
	start := time.Now()
	for _, peer := range targets {
		if err := n.pushDelete(ctx, peer, name, preGen); err != nil {
			n.replPushErrs.Inc()
			n.notePeer(peer, false)
			n.logger.LogAttrs(ctx, slog.LevelWarn, "fleet delete push failed",
				slog.String("model", name), slog.String("peer", peer),
				slog.Int64("generation", preGen), slog.String("error", err.Error()))
			continue
		}
		n.replPushes.Inc()
		n.notePeer(peer, true)
	}
	n.replHist.Observe(time.Since(start))
}

// pushSnapshot PUTs one snapshot to a peer's replicate endpoint and
// verifies the ack: a stale rejection at a strictly newer generation
// surfaces as errReplicaAhead (the local write forked), while a stale
// ack at the same generation is an idempotent duplicate and succeeds.
func (n *Node) pushSnapshot(ctx context.Context, peer, name string, gen int64, snap []byte) error {
	base, ok := n.cfg.Peers[peer]
	if !ok {
		return fmt.Errorf("fleet: unknown peer %q", peer)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, base+"/fleet/replicate/"+url.PathEscape(name), bytes.NewReader(snap))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Model-Generation", strconv.FormatInt(gen, 10))
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: replicate %s@%d to %s: %s", name, gen, peer, resp.Status)
	}
	var ack struct {
		Generation int64 `json:"generation"`
		Stale      bool  `json:"stale"`
	}
	if err := decodePeerJSON(resp, n.maxAck, &ack); err != nil {
		return fmt.Errorf("fleet: replicate %s@%d to %s: bad ack: %w", name, gen, peer, err)
	}
	if ack.Stale && ack.Generation > gen {
		return fmt.Errorf("%w: %s already serves %s at generation %d > %d",
			errReplicaAhead, peer, name, ack.Generation, gen)
	}
	return nil
}

// pushDelete sends one replicated delete to a peer.
func (n *Node) pushDelete(ctx context.Context, peer, name string, gen int64) error {
	base, ok := n.cfg.Peers[peer]
	if !ok {
		return fmt.Errorf("fleet: unknown peer %q", peer)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/fleet/replicate/"+url.PathEscape(name), nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Model-Generation", strconv.FormatInt(gen, 10))
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: delete %s@%d on %s: %s", name, gen, peer, resp.Status)
	}
	return nil
}

// fleetModelStat labels one resident model with its replica set.
type fleetModelStat struct {
	Owner    string   `json:"owner"`
	Replicas []string `json:"replicas"`
	Local    bool     `json:"local_is_owner"`
}

// statsSection renders the "fleet" /stats key: membership, peer
// states, and per-model owner/replica labels.
func (n *Node) statsSection() any {
	peerOut := make(map[string]string, len(n.peers))
	for _, name := range n.peerNames {
		peerOut[name] = n.peerStateName(name)
	}
	models := map[string]fleetModelStat{}
	for _, name := range n.reg.Names() {
		owners := n.ring.Owners(name)
		owner := ""
		if len(owners) > 0 {
			owner = owners[0]
		}
		models[name] = fleetModelStat{
			Owner:    owner,
			Replicas: owners,
			Local:    owner == n.cfg.Name,
		}
	}
	n.mu.Lock()
	tombs, evictedMarks := len(n.tombs), len(n.evictedGen)
	n.mu.Unlock()
	return map[string]any{
		"node":            n.cfg.Name,
		"ring":            n.ring.String(),
		"replicas":        n.ring.Replicas(),
		"vnodes":          n.ring.VNodes(),
		"ready":           n.Ready() == nil,
		"peers":           peerOut,
		"models":          models,
		"tombstones":      tombs,
		"evicted_markers": evictedMarks,
	}
}

// peerStateName maps a peer's tracked state onto the gauge vocabulary.
func (n *Node) peerStateName(peer string) string {
	ps := n.peers[peer]
	switch {
	case ps == nil || !ps.tried.Load():
		return "unknown"
	case ps.ok.Load():
		return "up"
	}
	return "down"
}

// writeMetrics emits the labeled fleet gauges the flat counter
// registry cannot express: hypermined_fleet_peers{state} and the
// per-model ownership gauge.
func (n *Node) writeMetrics(w io.Writer) {
	counts := map[string]int{"up": 0, "down": 0, "unknown": 0}
	for _, name := range n.peerNames {
		counts[n.peerStateName(name)]++
	}
	fmt.Fprintf(w, "# HELP hypermined_fleet_peers Configured peers by gossip-observed state.\n# TYPE hypermined_fleet_peers gauge\n")
	for _, state := range []string{"up", "down", "unknown"} {
		fmt.Fprintf(w, "hypermined_fleet_peers{state=%q} %d\n", state, counts[state])
	}
	fmt.Fprintf(w, "# HELP hypermined_fleet_owned_model Resident models this node is in the replica set of (1 primary owner, 0 replica).\n# TYPE hypermined_fleet_owned_model gauge\n")
	for _, name := range n.reg.Names() { // sorted by the registry
		if !n.ring.Owns(name, n.cfg.Name) {
			continue
		}
		v := 0
		if n.ring.Owner(name) == n.cfg.Name {
			v = 1
		}
		fmt.Fprintf(w, "hypermined_fleet_owned_model{model=%q} %d\n", name, v)
	}
}
