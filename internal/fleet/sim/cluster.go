// Package sim is the deterministic multi-node simulation harness that
// proves fleet correctness on a single-CPU box: it boots N real fleet
// nodes plus a router on loopback listeners, drives a seeded schedule
// of queries, appends, node kills, restarts, and lagging-gossip
// windows through real HTTP, and hands every exchange to
// internal/check, which holds each routed answer to a single-node
// reference registry and each replica's final state to the last acked
// write. The event loop is strictly sequential, gossip runs in
// manual-tick mode, and all randomness comes from one seeded source,
// so a failure replays exactly from its seed.
package sim

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"hypermine/internal/fleet"
	"hypermine/internal/registry"
	"hypermine/internal/server"
)

// nodeProc is one in-process fleet member: its address survives kill
// and restart (a restarted node re-binds the same port, so peer URL
// maps stay valid), its state does not (kill -9 semantics — the
// registry is rebuilt empty and repaired by replication and gossip).
type nodeProc struct {
	name  string
	addr  string // 127.0.0.1:port, stable across restarts
	url   string
	peers map[string]string // other nodes, name -> url

	reg   *registry.Registry
	node  *fleet.Node
	hs    *http.Server
	alive bool
}

// Cluster is an in-process fleet: N nodes and one router, all on real
// loopback listeners, gossip in manual-tick mode so the sim controls
// exactly when convergence happens.
type Cluster struct {
	replicas int
	vnodes   int
	nodes    []*nodeProc
	byName   map[string]*nodeProc

	router    *fleet.Router
	routerHS  *http.Server
	routerURL string

	// Client has keep-alives disabled: a killed node must present as a
	// fresh connection refusal, never as a half-dead pooled connection,
	// or failover behavior would depend on connection-pool history.
	Client *http.Client
}

// NewCluster boots n fleet nodes plus a router. Node names are
// "n0".."n{n-1}".
func NewCluster(n, replicas, vnodes int) (*Cluster, error) {
	return NewClusterWithClient(n, replicas, vnodes, nil)
}

// NewClusterWithClient is NewCluster with a caller-supplied HTTP
// client (nil = the deterministic keep-alive-free default). perfbench
// and TestRouterOverheadBar pass a pooled client so router forwarding
// overhead is measured without per-request TCP setup.
func NewClusterWithClient(n, replicas, vnodes int, client *http.Client) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: need at least one node, got %d", n)
	}
	if client == nil {
		client = &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{DisableKeepAlives: true},
		}
	}
	c := &Cluster{
		replicas: replicas,
		vnodes:   vnodes,
		byName:   make(map[string]*nodeProc, n),
		Client:   client,
	}
	// Reserve every listener first so all peer URLs are known before
	// any node is constructed.
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		listeners[i] = ln
		p := &nodeProc{
			name: fmt.Sprintf("n%d", i),
			addr: ln.Addr().String(),
		}
		p.url = "http://" + p.addr
		c.nodes = append(c.nodes, p)
		c.byName[p.name] = p
	}
	for _, p := range c.nodes {
		p.peers = make(map[string]string, n-1)
		for _, q := range c.nodes {
			if q != p {
				p.peers[q.name] = q.url
			}
		}
	}
	for i, p := range c.nodes {
		if err := c.boot(p, listeners[i]); err != nil {
			c.Close()
			return nil, err
		}
	}

	peers := make(map[string]string, n)
	for _, p := range c.nodes {
		peers[p.name] = p.url
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Peers:    peers,
		Replicas: replicas,
		VNodes:   vnodes,
		Client:   c.Client,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.routerURL = "http://" + ln.Addr().String()
	c.routerHS = &http.Server{Handler: rt.Handler()}
	go c.routerHS.Serve(ln)
	return c, nil
}

// boot constructs a fresh registry + server + fleet node for p and
// serves it on ln. Gossip interval 0 = manual ticks.
func (c *Cluster) boot(p *nodeProc, ln net.Listener) error {
	reg := registry.New(registry.Options{})
	// Server-level logs are discarded: the sim narrates through its own
	// Logf, and bench runs must not interleave per-PUT load lines.
	srv := server.New(reg, server.WithLogger(slog.New(slog.DiscardHandler)))
	node, err := fleet.NewNode(fleet.NodeConfig{
		Name:     p.name,
		Peers:    p.peers,
		Replicas: c.replicas,
		VNodes:   c.vnodes,
		Client:   c.Client,
	}, reg, srv)
	if err != nil {
		return err
	}
	node.Start()
	p.reg = reg
	p.node = node
	p.hs = &http.Server{Handler: node.Handler()}
	p.alive = true
	go p.hs.Serve(ln)
	return nil
}

// RouterURL returns the router's base URL.
func (c *Cluster) RouterURL() string { return c.routerURL }

// NodeURL returns a node's base URL (valid even while killed — dials
// then fail with connection refused, exactly like a dead process).
func (c *Cluster) NodeURL(name string) string { return c.byName[name].url }

// NodeNames returns the node names in boot order.
func (c *Cluster) NodeNames() []string {
	names := make([]string, len(c.nodes))
	for i, p := range c.nodes {
		names[i] = p.name
	}
	return names
}

// Ring returns the router's ring (all members agree on parameters).
func (c *Cluster) Ring() *fleet.Ring { return c.router.Ring() }

// Alive reports whether the named node is serving.
func (c *Cluster) Alive(name string) bool { return c.byName[name].alive }

// Kill hard-stops a node: the listener and all connections close
// immediately and in-memory state is abandoned, modeling kill -9.
func (c *Cluster) Kill(name string) error {
	p := c.byName[name]
	if p == nil {
		return fmt.Errorf("sim: unknown node %q", name)
	}
	if !p.alive {
		return fmt.Errorf("sim: node %q already dead", name)
	}
	p.alive = false
	p.node.Stop()
	return p.hs.Close()
}

// Restart boots a dead node from scratch on its original address: an
// empty registry that must re-learn its shard via gossip (and is not
// ready, and refuses writes, until it does).
func (c *Cluster) Restart(name string) error {
	p := c.byName[name]
	if p == nil {
		return fmt.Errorf("sim: unknown node %q", name)
	}
	if p.alive {
		return fmt.Errorf("sim: node %q is running", name)
	}
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return err
	}
	return c.boot(p, ln)
}

// Gossip runs one full gossip round (all peers) on the named node —
// the manual tick the deterministic schedule uses for lag release.
func (c *Cluster) Gossip(ctx context.Context, name string) error {
	p := c.byName[name]
	if p == nil || !p.alive {
		return fmt.Errorf("sim: node %q not serving", name)
	}
	return p.node.GossipAll(ctx)
}

// Converge gossips every live node against all its peers. One
// push-pull pass converges pairwise knowledge; a second pass closes
// transitive chains (A learned from B what B learned from C).
func (c *Cluster) Converge(ctx context.Context) error {
	for pass := 0; pass < 2; pass++ {
		for _, p := range c.nodes {
			if !p.alive {
				continue
			}
			if err := p.node.GossipAll(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	for _, p := range c.nodes {
		if p.alive {
			p.alive = false
			if p.node != nil {
				p.node.Stop()
			}
			if p.hs != nil {
				_ = p.hs.Close()
			}
		}
	}
	if c.routerHS != nil {
		_ = c.routerHS.Close()
	}
	if t, ok := c.Client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}
