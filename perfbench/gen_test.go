package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// inputs renders every input the benchmark hands the program for a seed.
func inputs(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	d := newDesign("signoff", genClusters(seed, streamDesign, "net", signoffClusters))
	for _, v := range []any{d, ecoEdit(seed, d), farmCorners(seed, farmCornersPerRound), genClusters(seed, streamCheck, "chk", farmCheckClusters)} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	pool := genPool(seed)
	reqs, err := genRequests(seed, pool, 50)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := warmupRequests(pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(reqs, warm...) {
		buf.Write(r.body)
	}
	return buf.Bytes()
}

func TestInputsFollowSeed(t *testing.T) {
	a, b := inputs(t, 7), inputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	if bytes.Equal(a, inputs(t, 8)) {
		t.Fatal("different seeds gave identical inputs")
	}
}

func TestGeneratedDesignsValidate(t *testing.T) {
	d := newDesign("signoff", genClusters(3, streamDesign, "net", signoffClusters))
	for _, v := range []interface{ Validate() error }{d, ecoEdit(3, d), newDesign("pool", genPool(3))} {
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRequestsMixKinds(t *testing.T) {
	reqs, err := genRequests(5, genPool(5), 40)
	if err != nil {
		t.Fatal(err)
	}
	feasible := 0
	for _, r := range reqs {
		if n := len(r.design.Clusters); n < 2 || n > 6 {
			t.Fatalf("request %s has %d clusters", r.design.Name, n)
		}
		if r.feasibility {
			feasible++
		}
	}
	if feasible != len(reqs)/2 {
		t.Fatalf("%d of %d requests set feasibility", feasible, len(reqs))
	}
}
