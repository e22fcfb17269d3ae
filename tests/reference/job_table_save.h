/**
 * @file
 * The put-by-put JobTable encoder — one Serializer put per field,
 * departures read back by draining a copy of the calendar — kept as
 * the oracle the sized, in-place JobTable::save is pinned to byte for
 * byte (tests/sim/test_job_table.cc) and the serial SHRD encoder of
 * the serving checkpoint test builds on. Not linked into the
 * simulator.
 */

#ifndef VMT_TESTS_REFERENCE_JOB_TABLE_SAVE_H
#define VMT_TESTS_REFERENCE_JOB_TABLE_SAVE_H

#include "sim/job_table.h"
#include "state/serializer.h"

namespace vmt::reference {

/** Append what JobTable::save writes for @p jobs: the slots, the free
 *  list, every residency list in (server, workload) order and the
 *  pending departures as (time, slot) in pop order. */
void saveJobTable(const JobTable &jobs, Serializer &out);

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_JOB_TABLE_SAVE_H
