package kgaq_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the repo documents whose links the docs CI job keeps alive.
var docFiles = []string{"README.md", "DESIGN.md", "PAPER.md", "ROADMAP.md", "CHANGES.md"}

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocLinks verifies every relative markdown link in the tracked
// documents resolves to a file or directory that exists, and that
// file:symbol pointers of the form `path/to/file.go` name real files.
// External (http/https/mailto) links are not fetched — CI must not depend
// on the network — but their URLs must at least parse as absolute.
func TestDocLinks(t *testing.T) {
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s: broken relative link %q", doc, m[1])
			}
		}
	}
}

// TestPaperMapPointers keeps PAPER.md's file pointers honest: every
// `internal/...` or `cmd/...` path mentioned in backticks must exist.
func TestPaperMapPointers(t *testing.T) {
	data, err := os.ReadFile("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	pathRe := regexp.MustCompile("`((?:internal|cmd)/[A-Za-z0-9_./-]*)`")
	seen := map[string]bool{}
	for _, m := range pathRe.FindAllStringSubmatch(string(data), -1) {
		p := m[1]
		if seen[p] {
			continue
		}
		seen[p] = true
		if _, err := os.Stat(filepath.FromSlash(p)); err != nil {
			t.Errorf("PAPER.md: pointer %q names a missing path", p)
		}
	}
	if len(seen) == 0 {
		t.Fatal("PAPER.md contains no file pointers — the paper→code map is gone")
	}
}

// TestPaperMapSymbols spot-checks that the symbols PAPER.md anchors the
// paper's core machinery to still exist in the named files, so the map
// cannot silently rot as code moves.
func TestPaperMapSymbols(t *testing.T) {
	checks := []struct{ file, symbol string }{
		{"internal/semsim/semsim.go", "func (c *Calculator) PathSim"},
		{"internal/walk/walker.go", "func (w *Walker) ConvergeCtx"},
		{"internal/walk/walker.go", "func (w *Walker) AnswerDistribution"},
		{"internal/walk/reference_test.go", "func refMatrix"},
		{"internal/walk/reference_test.go", "func refPowerIterate"},
		{"internal/walk/reference_test.go", "func refSampleByWalk"},
		{"internal/stats/rng.go", "func (a *Alias) Pick"},
		{"internal/estimate/estimate.go", "func Estimate"},
		{"internal/estimate/estimate.go", "func NextSampleSize"},
		{"internal/estimate/estimate.go", "func TotalSampleSize"},
		{"internal/federate/coordinator.go", "func (c *Coordinator) sizeFromPrior"},
		{"internal/estimate/estimate.go", "func Satisfied"},
		{"internal/estimate/estimate.go", "func MoESeeded"},
		{"internal/estimate/estimate.go", "func (sc *moeScratch) flatSigma"},
		{"internal/estimate/moments.go", "func MoEMoments"},
		{"internal/estimate/moments.go", "func (r *Running) Add"},
		{"internal/estimate/moments.go", "func (m Moments) Estimate"},
		{"internal/core/terms.go", "func (x *Execution) record"},
		{"internal/core/terms.go", "func (x *Execution) fold"},
		{"internal/core/terms.go", "func (x *Execution) advance"},
		{"internal/core/terms.go", "func (x *Execution) estimateOf"},
		{"internal/core/exec.go", "func (x *Execution) groupsOf"},
		{"internal/estimate/stratified.go", "func EstimateStratified"},
		{"internal/estimate/stratified.go", "func MoEStratified"},
		{"internal/estimate/stratified.go", "func AllocateDraws"},
		{"internal/core/exec.go", "func (x *Execution) Refine"},
		{"internal/core/space.go", "func (e *Engine) buildChainLevel"},
		{"internal/core/space.go", "func (e *Engine) buildAssemblySpace"},
		{"internal/core/space.go", "func (l *levelOracle) batch"},
		{"internal/core/space.go", "func (l *levelOracle) legBatch"},
		{"internal/core/terms.go", "func (x *Execution) settle"},
		{"internal/core/cache.go", "func (c *spaceCache) getPlan"},
		{"internal/core/prepared.go", "func (e *Engine) Prepare"},
		{"internal/core/exec.go", "func (x *Execution) refine"},
		{"internal/core/decide.go", "func Decide"},
		{"internal/core/decide.go", "StopCensus"},
		{"internal/core/exec.go", "func (x *Execution) census"},
		{"internal/core/terms.go", "func (t *termTable) tally"},
		{"internal/core/census_test.go", "func TestCensusMatchesSSB"},
		{"internal/core/census_test.go", "func TestCensusMatchesSSBScale30"},
		{"internal/core/decide.go", "func (p *Progress) Check"},
		{"internal/core/multi_test.go", "func TestQueryMultiMatchesSingles"},
		{"internal/estimate/stratified_test.go", "func TestStratifiedRefinementCoverage"},
		{"internal/estimate/estimate_test.go", "func TestTheorem2"},
		{"internal/core/determinism_test.go", "func TestQueryMultiBitwiseMatchesSequentialSingles"},
	}
	for _, c := range checks {
		data, err := os.ReadFile(filepath.FromSlash(c.file))
		if err != nil {
			t.Errorf("%s: %v", c.file, err)
			continue
		}
		if !strings.Contains(string(data), c.symbol) {
			t.Error(fmt.Sprintf("%s: symbol %q referenced by PAPER.md no longer present", c.file, c.symbol))
		}
	}
}
