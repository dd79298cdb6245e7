package simmpi

import "repro/internal/mpi"

// The payload buffer arena started here and moved to the shared mpi
// package (mpi.Arena) when the transport grew a second backend: the
// multi-process runtime's socket receive path borrows the same pooled
// buffers for zero-copy frame delivery. These aliases keep the World's
// internals reading as before; the arena's unit tests moved with it.
// Every World draws from the one process-wide arena (mpi.SharedArena).
type arena = mpi.Arena

func newArena() *arena { return mpi.SharedArena() }
