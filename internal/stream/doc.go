// Package stream is the uncertain stream database substrate (§II-A): typed
// schemas, tuples with both tuple uncertainty (a membership probability)
// and attribute uncertainty (distribution-valued fields), sliding windows,
// window aggregates, and the streaming learner (LearnOp). Query operators
// — filters, projections, expressions — are compiled from SQL by package
// core.
//
// Accuracy information flows with the data: every probabilistic field
// carries the sample size its distribution was learned from, and every
// query stage derives output sample sizes via Lemma 3, so that the engine
// (package core) can attach confidence intervals to any query result.
//
// # Ownership contract
//
// Windows, columns, and rendered frames pass through several layers that
// reuse buffers aggressively; the rules below say who may retain what, and
// for how long. Violating them does not fail fast — it silently corrupts
// results (typically by aliasing a buffer that a later push overwrites), so
// every rule here is backed by an aliasing test that checks values, not
// lengths.
//
// Tuples:
//
//   - A *Tuple handed to an ingest path (Engine.Ingest, CountWindow.Push,
//     TimeWindow.Push, ColumnWindow.Push) is owned by the callee from that
//     point on. The caller must not mutate the tuple or its Fields slice
//     afterwards. Callers that need to keep writing must pass t.Clone().
//   - Fields[i].Dist values are immutable by convention: no code in this
//     module ever mutates a distribution after construction, which is what
//     makes Clone's shallow copy of the Dist pointers safe.
//   - CountWindow/TimeWindow retain the *Tuple pointers they were given
//     until eviction. ColumnWindow does NOT retain the tuple: Push copies
//     the per-field scalars (and, for non-Gaussian fields, the immutable
//     Dist pointer) into its column arrays and drops the tuple reference.
//
// Window snapshots:
//
//   - Tuples()/AppendTuples return tuples that the caller may read until
//     the next Push on the same window; after that the contents may have
//     been evicted or (for ColumnWindow materializations) reused. Callers
//     that outlive the next push must deep-copy.
//   - ColumnWindow.Tuples materializes fresh *Tuple values; those are
//     owned by the caller, but their Dist pointers are shared with the
//     window for non-Gaussian fields (safe: immutable).
//   - Column slices returned by internal scans (ColumnWindow's kind/mean/
//     variance arrays) are live ring storage, never handed out across an
//     API boundary; aggregate kernels must finish reading them before
//     returning.
//
// Rendered frames (internal/server):
//
//   - A DATA line is rendered exactly once into a pooled frame and fanned
//     out to every subscriber by reference. The frame is reference-counted:
//     the renderer sets the count to the number of recipients, each
//     recipient (synchronous write, outbox enqueue-then-write, or the
//     slow-client drop path) releases exactly once, and the frame returns
//     to the pool only when the count reaches zero. Nobody may touch
//     frame.buf after their release.
package stream
