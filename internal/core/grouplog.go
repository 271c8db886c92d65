package core

import "fmt"

// GroupLog makes a write group durable before it applies. A relation
// carries at most one log (AttachLog), and WriteGroup.Commit calls the
// one its relations carry inside its critical section — the publish
// lock held shared, every touched relation's mutex held — after
// phase-1 validation has succeeded and before anything mutates.
// Returning an error aborts the commit with nothing applied anywhere,
// exactly like a validation failure; returning nil lets the apply
// proceed.
//
// This is the seam the storage layer's write-ahead log hangs off: the
// log serializes and fsyncs the group while the locks guarantee that
// (a) no Pin can interleave between the log append and the in-memory
// apply, and (b) groups touching a common relation reach the log in
// apply order. Core itself stays storage-agnostic.
//
// LogGroup must not stage into or commit write groups, pin, or
// otherwise take publish/relation locks — Commit already holds them.
type GroupLog interface {
	LogGroup(g *WriteGroup) error
}

// AttachLog makes l the log of r's write groups, replacing any log r
// carried before.
func (r *Relation) AttachLog(l GroupLog) {
	r.mu.Lock()
	r.log = l
	r.mu.Unlock()
}

// DetachLog stops l logging r's write groups. A relation attached to
// another log since keeps that one.
func (r *Relation) DetachLog(l GroupLog) {
	r.mu.Lock()
	if r.log == l {
		r.log = nil
	}
	r.mu.Unlock()
}

// logLocked hands g to the one log its relations carry; relations with
// no log are not logged. A group over two logs is refused: logging half
// of it into each would let a crash between the two appends recover
// one log with a group the other never saw. Commit calls it with every
// touched relation's mutex held.
func (g *WriteGroup) logLocked() error {
	var l GroupLog
	for _, r := range g.order {
		switch {
		case r.log == nil || r.log == l:
		case l != nil:
			return fmt.Errorf("core: write group spans two logs")
		default:
			l = r.log
		}
	}
	if l == nil {
		return nil
	}
	return l.LogGroup(g)
}

// Ops walks the staged mutations of the group's relations attached to
// l, in staging order grouped by relation (the order Commit validates
// in), handing fn each tuple and whether it was staged with merging
// semantics. It reads each relation's log without the relation's lock,
// so only l.LogGroup may call it, while Commit holds those locks. The
// callback must not mutate the group or the tuples.
func (g *WriteGroup) Ops(l GroupLog, fn func(r *Relation, t *Tuple, merging bool)) {
	for _, r := range g.order {
		if r.log != l {
			continue
		}
		for _, op := range g.ops[r] {
			fn(r, op.tuple, op.merging)
		}
	}
}
