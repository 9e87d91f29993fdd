#pragma once

#include "see/engine.hpp"
#include "support/json.hpp"

/// Snapshot (de)serialization of completed SEE searches.
///
/// A `SeeResult` is a pure value: the final frontier (owned snapshots) and
/// the search statistics — nothing in it references the problem it was
/// solved from except by id. The file stores each frontier snapshot's rows
/// ("solution" plus "alternatives"), with the assignment "nc" indexed by
/// DDG node rather than by working-set position. That makes a finished
/// search checkpointable: the HCA checkpoint layer persists the sub-problem
/// cache as (key, SeeResult) pairs so a resumed run replays byte-identical
/// solves instead of re-searching (hca/checkpoint.hpp).
///
/// Exactness rules: every integer field round-trips as a JSON number (all
/// live counters fit a double's 53-bit mantissa by a wide margin), while
/// doubles (the solution objective) and 64-bit masks are serialized as hex
/// bit-pattern strings so the round-trip is bit-exact regardless of any
/// printer/parser rounding.
namespace hca::see {

/// Emits `result` as the next value of an in-flight writer.
void writeSeeResult(JsonWriter& json, const SeeResult& result);

/// Strict inverse of `writeSeeResult`: throws InvalidArgumentError with a
/// field-naming message on any missing member, wrong type, or out-of-range
/// value — a cluster id in "nc" or "rc" that is neither -1 nor one of the
/// state's PG nodes included (mirrors the ddg/serialize parsing contract).
[[nodiscard]] SeeResult parseSeeResult(const JsonValue& value);

}  // namespace hca::see
