// Package lint implements hrdm-lint: purpose-built static analyzers
// that mechanically enforce the engine's snapshot and locking
// invariants — the rules docs/ARCHITECTURE.md states in prose and the
// race suites catch only probabilistically. Each analyzer fails CI on
// the exact line that breaks its rule, the way go vet fails on a
// malformed printf verb. The other invariants it once checked now hold
// by construction (docs/LINTING.md says where each lives).
//
// The package would normally build on golang.org/x/tools/go/analysis;
// this module carries no external dependencies, so it ships a small
// self-contained framework with the same shape: an Analyzer runs over
// one type-checked Package at a time and reports position-anchored
// Diagnostics. Packages are loaded through `go list -export`, whose
// export data feeds the standard library's gc importer — full go/types
// information without importing x/tools.
//
// The analyzers (see docs/LINTING.md for the invariant, a failing
// example and the fix, per analyzer):
//
//   - pindiscipline: engine/hql/cmd code reads relation tuple state
//     through a pinned snapshot, never raw *core.Relation accessors.
//   - lockorder: a function locking two or more Relation mutexes must
//     go through the canonical id-ordered helper WriteGroup.Commit uses.
//
// A finding on a legitimately exempt line is silenced by the preceding
// comment `//lint:allow <analyzer> <reason>`; an annotation without a
// reason (or naming an unknown analyzer) is itself a lint error,
// enforced by the allow analyzer.
package lint
