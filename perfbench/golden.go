package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// goldenSet maps workload → seed → digest key → digest.
type goldenSet map[string]map[string]map[string]string

// goldensJSON holds the digests of the default and held-out seeds at full
// size. Each was checked once, when it was created, against the workload's
// independent oracle path; at run time they are only compared.
//
//go:embed goldens.json
var goldensJSON []byte

var committedGoldens = func() goldenSet {
	var g goldenSet
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: goldens.json: %v", err))
	}
	return g
}()

// hasher accumulates a digest over values printed with %v, which renders
// every float64 in its shortest exact form (and ±Inf/NaN without error).
type hasher struct{ buf []byte }

func (h *hasher) add(vs ...any) {
	for _, v := range vs {
		h.buf = fmt.Appendf(h.buf, "%v|", v)
	}
	h.buf = append(h.buf, '\n')
}

func (h *hasher) sum() string { return digestBytes(h.buf) }

func digestBytes(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:16])
}

// goldenNamespace keys the golden cache: reduced sizes never share goldens
// with full ones.
func (b *bench) goldenNamespace() string {
	if b.small {
		return b.w.name + "-small"
	}
	return b.w.name
}

// verify compares every digest the run produced against its golden. A
// digest without one — a seed outside the committed set — is computed once
// through the workload's oracle path; when the oracle agrees, the digest is
// cached under dir/goldens and only compared on later runs. Each check
// counts as one operation; a mismatch is a failed one.
func (b *bench) verify(committed goldenSet) error {
	seed := strconv.FormatUint(b.seed, 10)
	want := map[string]string{}
	cachePath := filepath.Join(b.dir, "goldens", fmt.Sprintf("%s-%s.json", b.goldenNamespace(), seed))
	cached := map[string]string{}
	if data, err := os.ReadFile(cachePath); err == nil {
		if err := json.Unmarshal(data, &cached); err != nil {
			return fmt.Errorf("golden cache %s: %w", cachePath, err)
		}
	}
	for k, v := range cached {
		want[k] = v
	}
	for k, v := range committed[b.goldenNamespace()][seed] {
		want[k] = v
	}

	var pending []string
	measured := map[string]string{} // first digest seen per pending key
	for _, c := range b.checks {
		if _, ok := want[c.key]; ok {
			continue
		}
		if _, ok := measured[c.key]; !ok {
			pending = append(pending, c.key)
		}
		measured[c.key] = c.digest
	}
	if len(pending) > 0 {
		sort.Strings(pending)
		ref, err := b.w.oracle(b, pending)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		fresh := 0
		for _, k := range pending {
			d, ok := ref[k]
			if !ok {
				return fmt.Errorf("oracle returned no digest for %q", k)
			}
			want[k] = d
			if d == measured[k] {
				cached[k] = d
				fresh++
			}
		}
		if fresh > 0 {
			if err := writeJSONFile(cachePath, cached); err != nil {
				return err
			}
		}
		b.note("golden: %d new digests checked against the oracle, %d agreed", len(pending), fresh)
	}

	for _, c := range b.checks {
		ok := want[c.key] == c.digest
		b.op(ok)
		if !ok {
			b.note("golden mismatch: %s traced=%v got %s want %s", c.key, c.traced, c.digest, want[c.key])
		}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
