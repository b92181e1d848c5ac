package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"
	"strconv"

	"compisa/internal/eval"
)

// references pins the simulated outputs every run must reproduce. They do
// not depend on the seed: the seed only orders work and generates the warm
// request stream, whose responses are checked for consistency instead.
type references struct {
	// MPSearch maps "objective|budget" to the chosen CMP.
	MPSearch map[string]cmpRef `json:"mp-search"`
	// ColdDSE holds one digest per organisation plus the exact count of
	// simulated instructions across every (region, ISA) profile.
	ColdDSE struct {
		Orgs      map[string]string `json:"orgs"`
		SimInstrs int64             `json:"sim_instrs"`
	} `json:"cold-dse"`
	// ServeEval maps ISA key to the digest of its cold single-point
	// /evaluate result at the reference core.
	ServeEval map[string]string `json:"serve-eval"`
}

// cmpRef identifies a chosen 4-core CMP: its cores' design-point cache
// keys in canonical order and the exact bits of its objective score.
type cmpRef struct {
	Cores []string `json:"cores"`
	Score string   `json:"score"`
}

func loadRefs(path string) (*references, error) {
	r := &references{}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read references: %w", err)
	}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("parse references %s: %w", path, err)
	}
	return r, nil
}

func (r *references) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bits renders a float64's exact bit pattern.
func bits(f float64) string { return strconv.FormatUint(math.Float64bits(f), 16) }

// digest hashes lines in order.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// candidatesDigest hashes every candidate's per-region Speedup and NormEDP
// bits and degradation flags, in cache-key order so that it does not
// depend on evaluation order.
func candidatesDigest(cs []*eval.Candidate) string {
	lines := make([]string, 0, len(cs))
	for _, c := range cs {
		l := c.DP.CacheKey()
		for r := range c.Speedup {
			l += fmt.Sprintf(" %s/%s/%t", bits(c.Speedup[r]), bits(c.NormEDP[r]), c.Degraded[r])
		}
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return digest(lines)
}
