#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Library use with no server: the evaluation suite from scratch on both
/// storage backends, then IncrementalView maintenance.
void RunMaterialize(Run* run);
/// An in-memory server over a socket: one writer session, two readers.
void RunServeMixed(Run* run);
/// A durable server (fsync per commit, periodic compaction): three writer
/// sessions, then recovery of the directory.
void RunServeDurable(Run* run);

/// Feeds the materialize checker a TC model with one fact dropped; the
/// run must come out incorrect (part of --selftest).
void CheckModelWithDroppedFact(Run* run);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
