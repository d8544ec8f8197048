// The public-API contract test: everything in here goes exclusively
// through the root stanoise facade — compiling at all proves the facade
// needs no stanoise/internal imports from its callers.
package stanoise_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"stanoise"
)

func facadeOpts() stanoise.Options {
	return stanoise.Options{
		Method:    stanoise.Macromodel,
		Dt:        2e-12,
		Align:     true,
		LoadCurve: stanoise.LoadCurveOptions{NVin: 31, NVout: 31},
		NRC:       stanoise.NRCOptions{Widths: []float64{100e-12, 300e-12, 900e-12}, Dt: 2e-12},
	}
}

// TestFacadeEndToEnd drives the whole public flow: JSON round trip,
// batch analysis, streaming, the typed-error contract and the error
// policies — without touching a single internal package.
func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()

	// JSON round trip through the public parser.
	d := stanoise.GenerateDesign("facade", 3)
	var b strings.Builder
	if err := d.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	d, err := stanoise.ParseDesign(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}

	// Batch analysis with a shared cache.
	cache := stanoise.NewCache()
	opts := facadeOpts()
	opts.Cache = cache
	reports, err := stanoise.NewAnalyzer(d, opts).Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	if s := stanoise.Summarize(reports); s.Total != 3 {
		t.Errorf("summary %+v", s)
	}
	if cs := cache.Stats(); cs.Misses == 0 {
		t.Errorf("shared cache unused: %+v", cs)
	}

	// The report schema is JSON-stable.
	raw, err := json.Marshal(reports)
	if err != nil {
		t.Fatalf("reports do not marshal: %v", err)
	}
	var back []stanoise.NetReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("reports do not unmarshal: %v", err)
	}

	// Streaming yields the same set of clusters (completion order).
	var streamed []string
	for rep, err := range stanoise.NewAnalyzer(d, opts).Stream(ctx) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		streamed = append(streamed, rep.Cluster)
	}
	sort.Strings(streamed)
	want := []string{"net000", "net001", "net002"}
	for i, name := range want {
		if streamed[i] != name {
			t.Fatalf("streamed clusters %v, want %v", streamed, want)
		}
	}
}

// TestFacadeTypedErrors exercises the ClusterError and ErrorPolicy
// contract through the facade aliases.
func TestFacadeTypedErrors(t *testing.T) {
	ctx := context.Background()
	d := stanoise.GenerateDesign("facade-err", 4)
	d.Clusters[1].Victim.Cell = "NO_SUCH_CELL"

	_, err := stanoise.NewAnalyzer(d, facadeOpts()).Analyze(ctx)
	var cerr *stanoise.ClusterError
	if !errors.As(err, &cerr) {
		t.Fatalf("fail-fast error %v is not a *stanoise.ClusterError", err)
	}
	if cerr.Cluster != "net001" || cerr.Stage != stanoise.StageBuild {
		t.Errorf("cluster %q stage %q, want net001/%s", cerr.Cluster, cerr.Stage, stanoise.StageBuild)
	}

	opts := facadeOpts()
	opts.OnError = stanoise.ContinueOnError
	reports, err := stanoise.NewAnalyzer(d, opts).Analyze(ctx)
	if len(reports) != 3 {
		t.Errorf("continue-on-error reports = %d, want 3", len(reports))
	}
	if !errors.As(err, &cerr) {
		t.Errorf("joined error %v hides the *ClusterError", err)
	}

	// Cancellation surfaces as the context error, not a cluster failure.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := stanoise.NewAnalyzer(d, opts).Analyze(cctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Analyze error = %v", err)
	}

	// A non-finite engine step is rejected up front with the typed error.
	opts.Dt = math.NaN()
	var oerr *stanoise.OptionsError
	if _, err := stanoise.NewAnalyzer(d, opts).Analyze(ctx); !errors.Is(err, stanoise.ErrInvalidOptions) || !errors.As(err, &oerr) {
		t.Errorf("NaN Dt error = %v, want *stanoise.OptionsError", err)
	}
}

// TestFacadePersistentStore drives the disk tier entirely through the
// facade: OpenStore, Cache.SetStore, Options.CacheDir, export/import —
// the workflow a long-running sign-off service or CI pipeline scripts.
func TestFacadePersistentStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := stanoise.GenerateDesign("facade-store", 2)

	opts := facadeOpts()
	opts.Align = false
	opts.LoadCurve = stanoise.LoadCurveOptions{NVin: 9, NVout: 9}
	opts.NRC = stanoise.NRCOptions{Widths: []float64{150e-12, 600e-12}, Tol: 0.05, Dt: 2e-12}
	opts.CacheDir = dir

	cold := stanoise.NewAnalyzer(d, opts)
	if err := cold.StoreError(); err != nil {
		t.Fatal(err)
	}
	coldReports, err := cold.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}

	warm := stanoise.NewAnalyzer(d, opts)
	warmReports, err := warm.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs := warm.CacheStats(); cs.DiskHits == 0 || cs.DiskHits != cs.Misses {
		t.Errorf("warm run stats %+v, want every miss served from disk", cs)
	}
	for i := range coldReports {
		coldReports[i].ClearTiming()
		warmReports[i].ClearTiming()
	}
	cj, _ := json.Marshal(coldReports)
	wj, _ := json.Marshal(warmReports)
	if string(cj) != string(wj) {
		t.Errorf("warm reports differ from cold:\n%s\n%s", cj, wj)
	}

	// Export the precharacterised library and import it into a fresh
	// store; an analyzer over the fresh store starts warm too.
	store, err := stanoise.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bundle strings.Builder
	if err := store.Export(&bundle); err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	store2, err := stanoise.OpenStore(dir2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := store2.Import(strings.NewReader(bundle.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("bundle import added no entries")
	}
	opts2 := opts
	opts2.CacheDir = ""
	opts2.Store = store2
	imported := stanoise.NewAnalyzer(d, opts2)
	if _, err := imported.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	if cs := imported.CacheStats(); cs.DiskHits != cs.Misses {
		t.Errorf("imported-store run stats %+v, want fully warm", cs)
	}
}

// TestFacadeSampleDesign keeps the CLI starter design analysable.
func TestFacadeSampleDesign(t *testing.T) {
	if err := stanoise.SampleDesign().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := stanoise.ParseMethod("golden"); err != nil {
		t.Error(err)
	}
	if _, err := stanoise.ParseErrorPolicy("continue"); err != nil {
		t.Error(err)
	}
}
