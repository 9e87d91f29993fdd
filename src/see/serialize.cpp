#include "see/serialize.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "support/check.hpp"
#include "support/str.hpp"

namespace hca::see {

namespace {

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
std::vector<Id> parseIds(const JsonField& v) {
  return v.elements([](const JsonField& e) { return Id(e.int32()); });
}

// --- Item -------------------------------------------------------------------

void writeItem(JsonWriter& json, const Item& item) {
  json.beginObject();
  json.key("k").value(item.kind == Item::Kind::kRelay ? 1 : 0);
  json.key("n").value(item.node.value());
  json.key("v").value(item.value.value());
  json.endObject();
}

Item parseItem(const JsonField& v) {
  Item item;
  const std::int32_t kind = v.member("k").int32();
  HCA_REQUIRE(kind == 0 || kind == 1, "SEE snapshot: item kind out of range");
  item.kind = kind == 1 ? Item::Kind::kRelay : Item::Kind::kNode;
  item.node = DdgNodeId(v.member("n").int32());
  item.value = ValueId(v.member("v").int32());
  return item;
}

// --- SeeStats ---------------------------------------------------------------

void writeStats(JsonWriter& json, const SeeStats& s) {
  json.beginObject();
  for (const SeeCounter& c : kSeeCounters) json.key(c.key).value(s.*c.member);
  json.endObject();
}

SeeStats parseStats(const JsonField& v) {
  SeeStats s;
  for (const SeeCounter& c : kSeeCounters) {
    if (c.field == CounterField::kRequired) {
      s.*c.member = v.member(c.key).exactInt();
    } else if (const std::optional<JsonField> m = v.find(c.key)) {
      s.*c.member = m->exactInt();
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

  static PartialSolution parse(const JsonField& v) {
    PartialSolution s;
    s.nodeCluster_ = parseIds<ClusterId>(v.member("nc"));
    s.relayCluster_ = parseIds<ClusterId>(v.member("rc"));
    s.usage_ = v.member("us").elements([](const JsonField& e) {
      HCA_REQUIRE(e.array().size() == 3,
                  "SEE snapshot: usage entry must be [alu, ag, instructions]");
      machine::ResourceUsage u;
      u.alu = e.at(0).int32();
      u.ag = e.at(1).int32();
      u.instructions = e.at(2).int32();
      return u;
    });
    const std::vector<std::vector<ValueId>> flowLists =
        v.member("fl").elements(parseIds<ValueId>);
    s.flow_.resetArcs(flowLists.size());
    for (std::size_t arc = 0; arc < flowLists.size(); ++arc) {
      for (const ValueId value : flowLists[arc]) {
        s.flow_.addCopy(PgArcId(static_cast<std::int32_t>(arc)), value);
      }
    }
    s.inNbrMask_ = v.member("nm").elements([](const JsonField& e) {
      return parseHexBits(e.string(), "solution.nm[]");
    });
    s.inValues_ = v.member("iv").elements(parseIds<ValueId>);
    s.outValues_ = v.member("ov").elements(parseIds<ValueId>);
    s.assigned_ = v.member("as").int32();
    s.objective_ = parseDoubleBits(v.member("ob").string(), "solution.ob");
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
  const JsonReader reader("SEE snapshot");
  const JsonField root = reader.root(value);
  SeeResult result;
  result.legal = root.member("legal").boolean();
  std::vector<PartialSolution> states;
  if (result.legal) {
    states = root.member("alternatives").elements(SolutionSerializer::parse);
    HCA_REQUIRE(!states.empty(),
                "SEE snapshot: a legal result needs at least one alternative");
  } else {
    states.push_back(SolutionSerializer::parse(root.member("solution")));
  }
  SolutionSerializer::mapWorkingSet(states, &result);
  for (const PartialSolution& state : states) {
    result.frontier.emplace_back(state, result.workingSet);
  }
  result.stats = parseStats(root.member("stats"));
  result.failedItem = parseItem(root.member("failedItem"));
  result.failureReason = root.member("failureReason").string();
  return result;
}

}  // namespace hca::see
