// Package charstore is the persistent, versioned, content-addressed tier
// of the characterisation cache: the on-disk library of load curves,
// propagation tables, NRC curves and Thevenin driver fits that lets every
// snacheck/noisetab/libchar invocation reuse the transistor-level sweeps of
// all previous runs — exactly as delay-model characterisation is reused
// across runs in a production sign-off flow.
//
// Keys are content hashes over everything the artefact's numbers depend
// on: the technology card's device parameters, the cell's full transistor
// netlist (topology, sizing, parasitics), the characterisation state and
// pin, the sweep-grid fingerprint, and a model version. Editing a tech
// card, resizing a cell, changing a sweep grid or bumping ModelVersion
// therefore silently invalidates exactly the affected entries: their keys
// no longer match, the store misses, and the caller recharacterises.
//
// See DESIGN.md §6 for the layering and invalidation rules.
package charstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"stanoise/internal/cell"
	"stanoise/internal/circuit"
)

// ModelVersion names the characterisation model generation. Bump it when
// the *meaning* of stored numbers changes — a device-model fix, a different
// sweep semantics — and every existing entry becomes unreachable (its key
// embeds the old version), so stale physics can never leak into an
// analysis. Orphaned entries are reclaimed by Store.GC.
const ModelVersion = "1"

// keyScheme versions the key-derivation recipe itself, separately from the
// physics, so a change to how keys are built also invalidates cleanly.
const keyScheme = "stanoise-charstore-key/v1"

// CellNetlist renders the cell's transistor-level netlist with canonical
// node names — the content the characterisation engine actually simulates.
// Any change to the cell template, drive sizing, device parameters or
// parasitic derivation changes this text and therefore every derived key.
func CellNetlist(c *cell.Cell) (string, error) {
	ckt := circuit.New()
	pins := map[string]string{}
	for _, in := range c.Inputs() {
		pins[in] = "in_" + in
	}
	if err := c.Build(ckt, "dut", pins, "out", "vdd"); err != nil {
		return "", err
	}
	var b strings.Builder
	if err := ckt.Write(&b, ""); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Key derives the content address of one artefact under the current
// ModelVersion. The same physical inputs always map to the same key, on
// any machine, which is what makes exported stores portable. The card
// enters as tech.Tech.Fingerprint, the identity the in-memory tier keys on
// too; hashing the rendered netlist on top keeps entries exact across
// program versions whose cell templates differ.
func Key(kind string, cl *cell.Cell, st cell.State, pin, optsFP string) (string, error) {
	netlist, err := CellNetlist(cl)
	if err != nil {
		return "", fmt.Errorf("charstore: keying %s: %w", cl.Name(), err)
	}
	return keyFor(ModelVersion, kind, cl.Tech.Fingerprint(), netlist, st.String(), pin, optsFP), nil
}

// keyFor is the raw recipe, split out so tests can prove that a model
// version bump changes every key.
func keyFor(version, kind, techFP, netlist, state, pin, optsFP string) string {
	h := sha256.New()
	// Length-prefix every field so no concatenation of adjacent fields can
	// collide with a different split of the same bytes.
	for _, f := range []string{keyScheme, version, kind, techFP, netlist, state, pin, optsFP} {
		fmt.Fprintf(h, "%d:", len(f))
		h.Write([]byte(f))
	}
	return hex.EncodeToString(h.Sum(nil))
}
