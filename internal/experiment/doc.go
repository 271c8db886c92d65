// Package experiment implements the measurable experiments E1–E12; this
// package is where they are defined. The paper under reproduction is a
// model-and-algebra paper with no empirical tables, so each experiment
// operationalizes one of its qualitative claims: operator scaling along
// the three dimensions of Figure 10 (E1–E8), the consistent-extension
// overhead (E9), the Section 2 storage/granularity tradeoff against the
// cube and tuple-timestamping representations (E10–E11), and the cost
// symmetry of the algebraic rewrites (E12). Each experiment's doc
// comment states what it measures; cmd/hrdm-bench prints every table.
package experiment
