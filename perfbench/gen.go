package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"

	"stanoise/internal/charlib"
	"stanoise/internal/sna"
	"stanoise/internal/tech"
)

// Every input of every workload is drawn here, from the --seed argument
// alone; the program under test only ever sees the generated designs,
// requests and corner lists. Each input stream has its own PCG stream
// label, so adding draws to one stream never shifts another.
const (
	streamDesign uint64 = iota + 1
	streamECO
	streamPool
	streamRequests
	streamCheck
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// genClusters draws n clusters. Cluster i is the i-th cluster of
// sna.GenerateDesign — victim variant, aggressor count and drives, slews,
// geometry, correlation constraints, propagated glitch — so every seed
// has the same mix of cheap and expensive clusters and the same cell
// configurations recurring; the seed shifts each cluster's switching
// windows. Geometry stays fixed because the macromodel error of single
// clusters swings by tens of mV with a 2 % change of wire length, which
// would make the accuracy metric measure the seed rather than the program.
func genClusters(seed, stream uint64, prefix string, n int) []sna.ClusterSpec {
	rng := newRand(seed, stream)
	clusters := sna.GenerateDesign("", n).Clusters
	for i := range clusters {
		cs := &clusters[i]
		cs.Name = fmt.Sprintf("%s%03d", prefix, i)
		shift := 40 * rng.Float64()
		for j := range cs.Aggressors {
			if w := cs.Aggressors[j].Window; w != nil {
				cs.Aggressors[j].Window = &sna.WindowSpec{EarlyPs: w.EarlyPs + shift, LatePs: w.LatePs + shift}
			}
		}
	}
	return clusters
}

func newDesign(name string, clusters []sna.ClusterSpec) *sna.Design {
	return &sna.Design{Name: name, Tech: "cmos130", Layer: "M4", Segments: 8, Clusters: clusters}
}

// ecoEdit returns the design after a small late edit: the propagated
// glitch of a few seed-chosen clusters changes height. The leading
// clusters, which the workers take first, are left alone so that the time
// to the first verdict does not depend on the seed. The edit touches
// only analysis inputs, never a characterised cell configuration, so a
// store populated from the original design answers every artefact of the
// edited one.
func ecoEdit(seed uint64, d *sna.Design) *sna.Design {
	rng := newRand(seed, streamECO)
	eco := *d
	eco.Name = d.Name + "-eco"
	eco.Clusters = slices.Clone(d.Clusters)
	var glitched []int
	for i, cs := range eco.Clusters {
		if i >= benchWorkers && cs.Victim.GlitchHeightV > 0 {
			glitched = append(glitched, i)
		}
	}
	for _, k := range rng.Perm(len(glitched))[:min(3, len(glitched))] {
		eco.Clusters[glitched[k]].Victim.GlitchHeightV -= 0.02
	}
	return &eco
}

// serveRequest is one generated POST /v1/analyze request.
type serveRequest struct {
	design      *sna.Design
	feasibility bool
	body        []byte
}

// requestPool is the set of distinct clusters the served designs are cut
// from, as a front-end re-submitting nets of one block would.
const requestPool = 24

// genPool draws the request pool.
func genPool(seed uint64) []sna.ClusterSpec {
	return genClusters(seed, streamPool, "blk", requestPool)
}

// genRequests draws n requests of 2–6 distinct pool clusters each; every
// second request sets "feasibility": true.
func genRequests(seed uint64, pool []sna.ClusterSpec, n int) ([]serveRequest, error) {
	rng := newRand(seed, streamRequests)
	reqs := make([]serveRequest, n)
	for k := range reqs {
		perm := rng.Perm(len(pool))[:2+rng.IntN(5)]
		clusters := make([]sna.ClusterSpec, len(perm))
		for i, p := range perm {
			clusters[i] = pool[p]
		}
		r, err := makeRequest(newDesign(fmt.Sprintf("req%04d", k), clusters), k%2 == 1)
		if err != nil {
			return nil, err
		}
		reqs[k] = r
	}
	return reqs, nil
}

func makeRequest(d *sna.Design, feasibility bool) (serveRequest, error) {
	raw, err := json.Marshal(d)
	if err != nil {
		return serveRequest{}, err
	}
	body, err := json.Marshal(struct {
		Design      json.RawMessage `json:"design"`
		Feasibility bool            `json:"feasibility"`
	}{raw, feasibility})
	return serveRequest{design: d, feasibility: feasibility, body: body}, err
}

// warmupRequests covers every pool cluster with and without the
// feasibility filter, so that a server which has answered them holds every
// artefact and compiled bench the timed requests can need.
func warmupRequests(pool []sna.ClusterSpec) ([]serveRequest, error) {
	var out []serveRequest
	for lo := 0; lo < len(pool); lo += 6 {
		d := newDesign(fmt.Sprintf("warm%02d", lo), pool[lo:min(lo+6, len(pool))])
		for _, f := range []bool{false, true} {
			r, err := makeRequest(d, f)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// farmJobs is the library slice the farm characterises at every corner:
// the single-stage cells and both NAND2/NOR2 pins at unit drive.
var farmJobs = []charlib.CornerJob{
	{Kind: "INV", Drive: 1, Pin: "A"},
	{Kind: "BUF", Drive: 1, Pin: "A"},
	{Kind: "NAND2", Drive: 1, Pin: "A"},
	{Kind: "NAND2", Drive: 1, Pin: "B"},
	{Kind: "NOR2", Drive: 1, Pin: "A"},
	{Kind: "NOR2", Drive: 1, Pin: "B"},
}

// farmCorners draws the Monte Carlo corners of one farm round.
func farmCorners(seed uint64, n int) []tech.Corner {
	return tech.SampleCorners(n, int64(seed), tech.SampleSpec{})
}
