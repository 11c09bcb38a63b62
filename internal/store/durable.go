package store

import (
	"sync/atomic"

	"neobft/internal/replication"
)

// Durable wraps a replicated application so that every executed
// operation is journaled to the store's WAL as a write-behind
// RecordOp. Execution never blocks on the disk: the append is one
// write(2) into the page cache under the store's mutex, and no fsync
// runs under that mutex (the committer takes its batch under it and
// syncs outside it), so the record rides the next group-commit fsync
// batch while execution carries on. The append→fsync latency is visible
// in the store_wal_append_ns histogram. The write itself stays on the
// execution path because a write that has returned survives a SIGKILL of
// the process. Protocol-level durability comes from the checkpoint
// records the persist loop appends, not from this journal (see the
// package comment).
//
// The wrapper always implements replication.Snapshotter, forwarding to
// the inner application's (a stateless one's when it has none), so
// checkpoints see the same state whether or not the store is attached.
func Durable(app replication.App, st *Store) replication.App {
	return &durableApp{Snapshotter: replication.AsSnapshotter(app), inner: app, st: st}
}

type durableApp struct {
	replication.Snapshotter
	inner replication.App
	st    *Store
	seq   atomic.Uint64
}

func (d *durableApp) Execute(op []byte) ([]byte, func()) {
	// Journal first so the WAL order matches execution order even
	// under a concurrent snapshot.
	d.st.AppendOp(d.seq.Add(1), op)
	return d.inner.Execute(op)
}
