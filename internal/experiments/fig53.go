package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"hypermine/internal/cluster"
	"hypermine/internal/similarity"
)

// ClusterInfo describes one cluster of Figure 5.3.
type ClusterInfo struct {
	Center         string
	Size           int
	MajoritySector string
	MajorityShare  float64
	Members        []string
}

// Fig53Report reproduces Figure 5.3 and the §5.3.2 quality numbers:
// t-clustering of all series in the similarity graph with t = number
// of sub-sectors, mean cluster diameter, overall mean distance, purity
// against the sector taxonomy, and the triangle-inequality check that
// justifies the 2-approximation.
type Fig53Report struct {
	Config             string
	T                  int
	MeanDiameter       float64
	MeanDistance       float64
	Purity             float64
	TriangleViolations int
	LargestCluster     ClusterInfo
	Clusters           []ClusterInfo
}

// RunFig53 builds the C1 similarity graph over all series and runs
// Gonzalez t-clustering. The first center comes from the sector with
// the most series (the paper picks Technology).
func RunFig53(e *Env) (*Fig53Report, error) {
	b, err := e.Built("C1")
	if err != nil {
		return nil, err
	}
	h := b.Model.H
	n := h.NumVertices()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	g, err := similarity.BuildGraphContext(context.Background(), h, all, similarity.GraphOptions{})
	if err != nil {
		return nil, err
	}

	// The paper sets t to the number of sub-sectors (104 for 346
	// series, ~3.3 series per cluster). Scaled-down universes would
	// degenerate into singletons with that rule, so cap t to keep the
	// paper's series-per-cluster ratio.
	subs := map[string]bool{}
	sectorCounts := map[string]int{}
	for _, s := range e.U.Series {
		subs[s.SubSector] = true
		sectorCounts[s.Sector]++
	}
	t := len(subs)
	if max := n * 104 / 346; t > max {
		t = max
	}
	if t < 2 {
		t = 2
	}
	if t > n {
		t = n
	}

	// First center: first series of the largest sector.
	bigSector, bigCount := "", -1
	for sec, c := range sectorCounts {
		if c > bigCount || (c == bigCount && sec < bigSector) {
			bigSector, bigCount = sec, c
		}
	}
	first := 0
	for i, s := range e.U.Series {
		if s.Sector == bigSector {
			first = i
			break
		}
	}

	cl, err := cluster.TClustering(n, t, g.Dist, first)
	if err != nil {
		return nil, err
	}
	labels := make([]string, n)
	for i, s := range e.U.Series {
		labels[i] = s.Sector
	}
	purity, err := cluster.SectorPurity(cl, labels)
	if err != nil {
		return nil, err
	}

	rep := &Fig53Report{
		Config:             "C1",
		T:                  t,
		MeanDiameter:       cl.MeanDiameter(g.Dist),
		MeanDistance:       g.MeanDistance(),
		Purity:             purity,
		TriangleViolations: g.TriangleViolations(1e-9),
	}
	for ci := range cl.Centers {
		members := cl.Members(ci)
		counts := map[string]int{}
		for _, p := range members {
			counts[labels[p]]++
		}
		maj, majC := "", 0
		for sec, c := range counts {
			if c > majC || (c == majC && sec < maj) {
				maj, majC = sec, c
			}
		}
		info := ClusterInfo{
			Center:         h.VertexName(cl.Centers[ci]),
			Size:           len(members),
			MajoritySector: maj,
			MajorityShare:  float64(majC) / float64(len(members)),
		}
		for _, p := range members {
			info.Members = append(info.Members, h.VertexName(p))
		}
		rep.Clusters = append(rep.Clusters, info)
		if info.Size > rep.LargestCluster.Size {
			rep.LargestCluster = info
		}
	}
	sort.Slice(rep.Clusters, func(i, j int) bool { return rep.Clusters[i].Size > rep.Clusters[j].Size })
	return rep, nil
}

// Render writes cluster statistics and the clusters of size > 6 (the
// paper's display cutoff).
func (r *Fig53Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 5.3 clusters of financial time-series (%s, t=%d) ==\n", r.Config, r.T)
	fmt.Fprintf(w, "mean cluster diameter %.3f (paper: 0.83), overall mean distance %.3f (paper: 0.89)\n",
		r.MeanDiameter, r.MeanDistance)
	fmt.Fprintf(w, "sector purity %.3f, triangle violations %d\n", r.Purity, r.TriangleViolations)
	fmt.Fprintf(w, "largest cluster: center %s size %d majority %s (%.0f%%)\n",
		r.LargestCluster.Center, r.LargestCluster.Size, r.LargestCluster.MajoritySector, 100*r.LargestCluster.MajorityShare)
	for _, c := range r.Clusters {
		if c.Size <= 6 {
			continue
		}
		fmt.Fprintf(w, "  cluster @%s size=%d majority=%s(%.0f%%) members=%v\n",
			c.Center, c.Size, c.MajoritySector, 100*c.MajorityShare, c.Members)
	}
	return nil
}
