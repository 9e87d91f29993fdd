#include "see/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "support/check.hpp"
#include "support/str.hpp"

namespace hca::see {

namespace {

// --- strict, field-naming parse helpers (ddg/serialize contract) -----------

const JsonValue& member(const JsonValue& v, const char* name) {
  HCA_REQUIRE(v.isObject(), "SEE snapshot: expected an object around '"
                                << name << "'");
  const JsonValue* m = v.find(name);
  HCA_REQUIRE(m != nullptr, "SEE snapshot: missing member '" << name << "'");
  return *m;
}

std::int64_t asInt(const JsonValue& v, const char* what) {
  HCA_REQUIRE(v.kind == JsonValue::Kind::kNumber,
              "SEE snapshot: '" << what << "' must be a number");
  const double d = v.number;
  HCA_REQUIRE(std::floor(d) == d && std::abs(d) <= 9007199254740992.0,
              "SEE snapshot: '" << what << "' is not an exact integer");
  return static_cast<std::int64_t>(d);
}

std::int32_t asI32(const JsonValue& v, const char* what) {
  const std::int64_t i = asInt(v, what);
  HCA_REQUIRE(i >= INT32_MIN && i <= INT32_MAX,
              "SEE snapshot: '" << what << "' out of int32 range");
  return static_cast<std::int32_t>(i);
}

const std::vector<JsonValue>& asArray(const JsonValue& v, const char* what) {
  HCA_REQUIRE(v.isArray(), "SEE snapshot: '" << what << "' must be an array");
  return v.array;
}

const std::string& asString(const JsonValue& v, const char* what) {
  HCA_REQUIRE(v.kind == JsonValue::Kind::kString,
              "SEE snapshot: '" << what << "' must be a string");
  return v.string;
}

// --- bit-exact scalar encodings --------------------------------------------

std::string hexBits(std::uint64_t bits) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::uint64_t parseHexBits(const std::string& text, const char* what) {
  HCA_REQUIRE(text.size() == 18 && text[0] == '0' && text[1] == 'x',
              "SEE snapshot: '" << what << "' must be an 0x-prefixed 16-digit "
                                   "hex string, got '" << text << "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long bits = std::strtoull(text.c_str() + 2, &end, 16);
  HCA_REQUIRE(errno == 0 && end == text.c_str() + text.size(),
              "SEE snapshot: bad hex in '" << what << "': '" << text << "'");
  return static_cast<std::uint64_t>(bits);
}

std::string doubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return hexBits(bits);
}

double parseDoubleBits(const std::string& text, const char* what) {
  const std::uint64_t bits = parseHexBits(text, what);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// --- vector-of-id helpers ---------------------------------------------------

template <class Id>
void writeIds(JsonWriter& json, const std::vector<Id>& ids) {
  json.beginArray();
  for (const Id id : ids) json.value(id.value());
  json.endArray();
}

template <class Id>
std::vector<Id> parseIds(const JsonValue& v, const char* what) {
  std::vector<Id> out;
  out.reserve(asArray(v, what).size());
  for (const JsonValue& e : v.array) out.emplace_back(asI32(e, what));
  return out;
}

// --- Item -------------------------------------------------------------------

void writeItem(JsonWriter& json, const Item& item) {
  json.beginObject();
  json.key("k").value(item.kind == Item::Kind::kRelay ? 1 : 0);
  json.key("n").value(item.node.value());
  json.key("v").value(item.value.value());
  json.endObject();
}

Item parseItem(const JsonValue& v) {
  Item item;
  const std::int32_t kind = asI32(member(v, "k"), "item.k");
  HCA_REQUIRE(kind == 0 || kind == 1, "SEE snapshot: item kind out of range");
  item.kind = kind == 1 ? Item::Kind::kRelay : Item::Kind::kNode;
  item.node = DdgNodeId(asI32(member(v, "n"), "item.n"));
  item.value = ValueId(asI32(member(v, "v"), "item.v"));
  return item;
}

// --- SeeStats ---------------------------------------------------------------

void writeStats(JsonWriter& json, const SeeStats& s) {
  json.beginObject();
  for (const SeeCounter& c : kSeeCounters) json.key(c.key).value(s.*c.member);
  json.endObject();
}

SeeStats parseStats(const JsonValue& v) {
  SeeStats s;
  for (const SeeCounter& c : kSeeCounters) {
    if (c.field == CounterField::kRequired) {
      s.*c.member = asInt(member(v, c.key), c.key);
    } else if (const JsonValue* m = v.find(c.key)) {
      s.*c.member = asInt(*m, c.key);
    }
  }
  return s;
}

}  // namespace

/// Private-state access point (friend of PartialSolution). All the heavy
/// members are plain id/int vectors; the two bit-sensitive scalars
/// (objective, in-neighbor masks) go through the hex encodings above.
struct SolutionSerializer {
  static void write(JsonWriter& json, const PartialSolution& s) {
    json.beginObject();
    json.key("nc");
    writeIds(json, s.nodeCluster_);
    json.key("rc");
    writeIds(json, s.relayCluster_);
    json.key("us").beginArray();
    for (const machine::ResourceUsage& u : s.usage_) {
      json.beginArray();
      json.value(u.alu);
      json.value(u.ag);
      json.value(u.instructions);
      json.endArray();
    }
    json.endArray();
    json.key("fl").beginArray();
    for (std::size_t arc = 0; arc < s.flow_.numArcLists(); ++arc) {
      writeIds(json, s.flow_.copiesOn(PgArcId(static_cast<std::int32_t>(arc))));
    }
    json.endArray();
    json.key("nm").beginArray();
    for (const std::uint64_t mask : s.inNbrMask_) json.value(hexBits(mask));
    json.endArray();
    json.key("iv").beginArray();
    for (const auto& values : s.inValues_) writeIds(json, values);
    json.endArray();
    json.key("ov").beginArray();
    for (const auto& values : s.outValues_) writeIds(json, values);
    json.endArray();
    json.key("as").value(s.assigned_);
    json.key("ob").value(doubleBits(s.objective_));
    json.endObject();
  }

  static PartialSolution parse(const JsonValue& v) {
    PartialSolution s;
    s.nodeCluster_ = parseIds<ClusterId>(member(v, "nc"), "solution.nc");
    s.relayCluster_ = parseIds<ClusterId>(member(v, "rc"), "solution.rc");
    for (const JsonValue& e : asArray(member(v, "us"), "solution.us")) {
      const auto& triple = asArray(e, "solution.us[]");
      HCA_REQUIRE(triple.size() == 3,
                  "SEE snapshot: usage entry must be [alu, ag, instructions]");
      machine::ResourceUsage u;
      u.alu = asI32(triple[0], "usage.alu");
      u.ag = asI32(triple[1], "usage.ag");
      u.instructions = asI32(triple[2], "usage.instructions");
      s.usage_.push_back(u);
    }
    const auto& flowLists = asArray(member(v, "fl"), "solution.fl");
    s.flow_.resetArcs(flowLists.size());
    for (std::size_t arc = 0; arc < flowLists.size(); ++arc) {
      for (const ValueId value :
           parseIds<ValueId>(flowLists[arc], "solution.fl[]")) {
        s.flow_.addCopy(PgArcId(static_cast<std::int32_t>(arc)), value);
      }
    }
    for (const JsonValue& e : asArray(member(v, "nm"), "solution.nm")) {
      s.inNbrMask_.push_back(parseHexBits(asString(e, "solution.nm[]"),
                                          "solution.nm[]"));
    }
    for (const JsonValue& e : asArray(member(v, "iv"), "solution.iv")) {
      s.inValues_.push_back(parseIds<ValueId>(e, "solution.iv[]"));
    }
    for (const JsonValue& e : asArray(member(v, "ov"), "solution.ov")) {
      s.outValues_.push_back(parseIds<ValueId>(e, "solution.ov[]"));
    }
    s.assigned_ = asI32(member(v, "as"), "solution.as");
    s.objective_ = parseDoubleBits(asString(member(v, "ob"), "solution.ob"),
                                   "solution.ob");
    const std::size_t nodes = s.usage_.size();
    HCA_REQUIRE(s.inNbrMask_.size() == nodes && s.inValues_.size() == nodes &&
                    s.outValues_.size() == nodes,
                "SEE snapshot: per-cluster vectors disagree on node count");
    return s;
  }

  /// The file keeps DDG-indexed states only, so the working set of their
  /// snapshots is every node some state assigns, in ascending id order.
  /// For a legal result that is the sub-problem's working set itself: every
  /// state places all of it, and the driver builds working sets in
  /// ascending id order.
  static void mapWorkingSet(const std::vector<PartialSolution>& states,
                            SeeResult* result) {
    const std::size_t ddgNodes = states.front().nodeCluster_.size();
    std::vector<char> assigned(ddgNodes, 0);
    for (const PartialSolution& s : states) {
      HCA_REQUIRE(s.nodeCluster_.size() == ddgNodes,
                  "SEE snapshot: frontier states disagree on DDG size");
      for (std::size_t v = 0; v < ddgNodes; ++v) {
        if (s.nodeCluster_[v].valid()) assigned[v] = 1;
      }
    }
    result->ddgNodes = static_cast<std::int32_t>(ddgNodes);
    for (std::size_t v = 0; v < ddgNodes; ++v) {
      if (assigned[v] != 0) {
        result->workingSet.emplace_back(static_cast<std::int32_t>(v));
      }
    }
  }
};

void writeSeeResult(JsonWriter& json, const SeeResult& result) {
  json.beginObject();
  json.key("legal").value(result.legal);
  // The frontier in its materialized form: "solution" is the best state
  // (empty for a result without one); a legal result lists every state as
  // "alternatives", an illegal one none.
  json.key("solution");
  SolutionSerializer::write(json, result.frontier.empty()
                                      ? PartialSolution{}
                                      : result.materialize(0));
  json.key("alternatives").beginArray();
  if (result.legal) {
    for (std::size_t i = 0; i < result.frontier.size(); ++i) {
      SolutionSerializer::write(json, result.materialize(i));
    }
  }
  json.endArray();
  json.key("stats");
  writeStats(json, result.stats);
  json.key("failedItem");
  writeItem(json, result.failedItem);
  json.key("failureReason").value(result.failureReason);
  json.endObject();
}

SeeResult parseSeeResult(const JsonValue& value) {
  SeeResult result;
  const JsonValue& legal = member(value, "legal");
  HCA_REQUIRE(legal.kind == JsonValue::Kind::kBool,
              "SEE snapshot: 'legal' must be a bool");
  result.legal = legal.boolean;
  std::vector<PartialSolution> states;
  if (result.legal) {
    for (const JsonValue& alt :
         asArray(member(value, "alternatives"), "alternatives")) {
      states.push_back(SolutionSerializer::parse(alt));
    }
    HCA_REQUIRE(!states.empty(),
                "SEE snapshot: a legal result needs at least one alternative");
  } else {
    states.push_back(SolutionSerializer::parse(member(value, "solution")));
  }
  SolutionSerializer::mapWorkingSet(states, &result);
  for (const PartialSolution& state : states) {
    result.frontier.emplace_back(state, result.workingSet);
  }
  result.stats = parseStats(member(value, "stats"));
  result.failedItem = parseItem(member(value, "failedItem"));
  result.failureReason =
      asString(member(value, "failureReason"), "failureReason");
  return result;
}

}  // namespace hca::see
