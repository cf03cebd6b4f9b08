package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/core"
)

// TestEscapedModelNames pins that a model name holding URL
// metacharacters is one name end to end: a routed PUT, :append, read
// and DELETE, the owners' replication pushes and a restarted owner's
// gossip pull all reach exactly the named model on every owner, and
// never the model "a" that the name's decoded prefix spells.
func TestEscapedModelNames(t *testing.T) {
	c, err := NewCluster(3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Converge(ctx); err != nil {
		t.Fatal(err)
	}
	snap := func(rows int) []byte {
		var buf bytes.Buffer
		if err := core.WriteSnapshot(&buf, benchfix.ModelWorkload(8, rows), core.SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// do sends one request for model name and returns the status, the
	// generation header (0 when absent) and the body.
	do := func(method, base, name, suffix string, body []byte) (int, int64, []byte) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, method, base+"/v1/models/"+url.PathEscape(name)+suffix, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if suffix == ":append" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.Client.Do(req)
		if err != nil {
			t.Fatalf("%s %q%s: %v", method, name, suffix, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		gen, _ := strconv.ParseInt(resp.Header.Get("X-Model-Generation"), 10, 64)
		return resp.StatusCode, gen, raw
	}
	// holds requires every owner of name to serve it at generation
	// want (0: not at all) and every other node not to serve it.
	holds := func(name string, want int64) {
		t.Helper()
		owners := c.Ring().Owners(name)
		for _, node := range c.NodeNames() {
			expect := int64(0)
			if slices.Contains(owners, node) {
				expect = want
			}
			status, gen, _ := do(http.MethodGet, c.NodeURL(node), name, "", nil)
			if (expect == 0 && status != http.StatusNotFound) || (expect != 0 && (status != http.StatusOK || gen != expect)) {
				t.Fatalf("node %s serves %q: status %d generation %d, want generation %d", node, name, status, gen, expect)
			}
		}
	}

	status, genA, _ := do(http.MethodPut, c.RouterURL(), "a", "", snap(60))
	if status != http.StatusOK || genA == 0 {
		t.Fatalf("PUT a: status %d generation %d", status, genA)
	}
	for _, name := range []string{"a?b", "a#b", "a/b", "a%b", "a b", "a%2Fb", "a?b#c/d e%"} {
		status, gen, body := do(http.MethodPut, c.RouterURL(), name, "", snap(80))
		var ack struct{ Name string }
		if err := json.Unmarshal(body, &ack); err != nil || status != http.StatusOK || ack.Name != name {
			t.Fatalf("routed PUT %q: status %d, ack %s", name, status, body)
		}
		status, appended, _ := do(http.MethodPost, c.RouterURL(), name, ":append", []byte(`{"rows":[[1,2,3,1,2,3,1,2]]}`))
		if status != http.StatusOK || appended <= gen {
			t.Fatalf("routed append %q: status %d generation %d after %d", name, status, appended, gen)
		}
		if status, got, _ := do(http.MethodGet, c.RouterURL(), name, "", nil); status != http.StatusOK || got != appended {
			t.Fatalf("routed read %q: status %d generation %d, want %d", name, status, got, appended)
		}
		holds(name, appended)

		// A restarted owner comes back empty and must pull the model by
		// its name.
		owner := c.Ring().Owners(name)[0]
		if err := c.Kill(owner); err != nil {
			t.Fatal(err)
		}
		if err := c.Restart(owner); err != nil {
			t.Fatal(err)
		}
		if err := c.Gossip(ctx, owner); err != nil {
			t.Fatal(err)
		}
		holds(name, appended)

		if status, _, body := do(http.MethodDelete, c.RouterURL(), name, "", nil); status != http.StatusOK {
			t.Fatalf("routed DELETE %q: status %d %s", name, status, body)
		}
		holds(name, 0)
		holds("a", genA)
	}
}
