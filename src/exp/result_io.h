/**
 * @file
 * Structured result output. RunRecords and Tables serialize to JSON (for
 * machine consumption: CI artifacts, plotting pipelines) and CSV, alongside
 * the existing aligned-text Table rendering. The JSON writer is hand-rolled
 * (the toolchain bakes in no JSON library) but escapes strings properly and
 * emits round-trippable full-precision doubles.
 */
#ifndef SMARTINF_EXP_RESULT_IO_H
#define SMARTINF_EXP_RESULT_IO_H

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.h"
#include "exp/run_spec.h"

namespace smartinf::exp {

/** Format a double round-trippably ("1e99"-safe, max_digits10). */
std::string jsonNumber(double v);

/** One record as a JSON object: spec, hash, engine, phases, traffic. */
void writeRecordJson(std::ostream &os, const RunRecord &record);

/** A record array: [{...}, ...]. */
void writeRecordsJson(std::ostream &os,
                      const std::vector<RunRecord> &records);

/** One table as {"title", "header", "rows"}. */
void writeTableJson(std::ostream &os, const Table &table);

/** Records as flat CSV (one header line + one line per record). */
void writeRecordsCsv(std::ostream &os,
                     const std::vector<RunRecord> &records);

} // namespace smartinf::exp

#endif // SMARTINF_EXP_RESULT_IO_H
