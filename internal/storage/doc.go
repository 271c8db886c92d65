// Package storage implements the physical level of HRDM's three-level
// architecture (paper Figure 9: representation / model / physical).
//
// Historical relations are serialized to a compact binary format that
// stores each attribute value in its representation-level form — the
// interval-coalesced steps of tfunc.Func, so a salary constant for a
// thousand chronons costs one step — and are read back losslessly. The
// same byte counts drive the storage-footprint experiment (E10), where
// HRDM competes with the cube and tuple-timestamping representations.
// One codec (codec.go) encodes and decodes through a 64 KiB window it
// owns, for snapshot files and WAL group payloads alike, and cuts a
// decoded relation's tuples, steps and intervals from a few slabs.
//
// A human-editable text format (text.go) mirrors the model for
// authoring databases by hand. Both loaders publish through the bulk
// write paths of internal/core: a relation's tuples arrive as one
// batch, and a multi-relation text load (or a Store.MergeStore of one
// store into another) commits as a single core.WriteGroup — one
// atomic, epoch-consistent publication for the whole file.
package storage
