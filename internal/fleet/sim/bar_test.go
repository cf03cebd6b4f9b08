package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"hypermine/internal/benchfix"
	"hypermine/internal/core"
	"hypermine/internal/testutil"
)

// TestRouterOverheadBar: a warm classify routed through the fleet
// router may cost at most 2 ms more than the same classify sent
// straight to the owning replica, over loopback with keep-alive. The
// router adds one local hop; anything near milliseconds is a buffering
// or connection-reuse regression, not hop cost.
func TestRouterOverheadBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing comparisons are not meaningful under the race detector")
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Timeout: time.Minute, Transport: tr}
	c, err := NewClusterWithClient(3, 2, 0, client)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Converge(context.Background()); err != nil {
		t.Fatal(err)
	}
	send := func(method, url string, body []byte) ([]byte, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, out)
		}
		return out, err
	}

	var snap bytes.Buffer
	if err := core.WriteSnapshot(&snap, benchfix.ModelWorkload(12, 1500), core.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := send(http.MethodPut, c.RouterURL()+"/v1/models/bench", snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	ownerURL := c.NodeURL(c.Ring().Owners("bench")[0])
	var info struct{ Dominator, Targets []string }
	raw, err := send(http.MethodGet, ownerURL+"/v1/models/bench", nil)
	if err == nil {
		err = json.Unmarshal(raw, &info)
	}
	if err != nil || len(info.Dominator) == 0 || len(info.Targets) == 0 {
		t.Fatalf("model detail unusable: %v %s", err, raw)
	}
	values := map[string]int{}
	for _, a := range info.Dominator {
		values[a] = 1
	}
	body, err := json.Marshal(map[string]any{"target": info.Targets[0], "values": values})
	if err != nil {
		t.Fatal(err)
	}
	classify := func(base string) func() error {
		return func() error {
			_, err := send(http.MethodPost, base+"/v1/models/bench/classify", body)
			return err
		}
	}

	directNs, routedNs := testutil.BestOfPair(t, classify(ownerURL), classify(c.RouterURL()))
	overhead := time.Duration(routedNs - directNs)
	t.Logf("warm classify: direct %.1f µs, routed %.1f µs -> router adds %v (bar < 2ms)", directNs/1e3, routedNs/1e3, overhead)
	if overhead >= 2*time.Millisecond {
		t.Errorf("router forwarding adds %v to a warm classify, want < 2ms", overhead)
	}
}
