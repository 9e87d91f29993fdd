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

// --- frontier states --------------------------------------------------------

/// One state in the file's form: its rows, with the assignment "nc"
/// scattered to one entry per DDG node (-1 off the working set). The two
/// bit-sensitive scalars (objective, in-neighbor masks) go through the hex
/// encodings above.
void writeState(JsonWriter& json, const SnapshotRows& s,
                const std::vector<DdgNodeId>& workingSet,
                std::int32_t ddgNodes) {
  std::vector<ClusterId> nodeCluster(static_cast<std::size_t>(ddgNodes),
                                     ClusterId::invalid());
  for (std::size_t i = 0; i < s.nodeCluster.size(); ++i) {
    nodeCluster[workingSet[i].index()] = s.nodeCluster[i];
  }
  const auto writeLists = [&json](const std::vector<std::vector<ValueId>>& l) {
    json.beginArray();
    for (const auto& values : l) writeIds(json, values);
    json.endArray();
  };
  json.beginObject();
  json.key("nc");
  writeIds(json, nodeCluster);
  json.key("rc");
  writeIds(json, s.relayCluster);
  json.key("us").beginArray();
  for (const machine::ResourceUsage& u : s.usage) {
    json.beginArray();
    json.value(u.alu);
    json.value(u.ag);
    json.value(u.instructions);
    json.endArray();
  }
  json.endArray();
  json.key("fl");
  writeLists(s.flow);
  json.key("nm").beginArray();
  for (const std::uint64_t mask : s.inNbrMask) json.value(hexBits(mask));
  json.endArray();
  json.key("iv");
  writeLists(s.inValues);
  json.key("ov");
  writeLists(s.outValues);
  json.key("as").value(s.assigned);
  json.key("ob").value(doubleBits(s.objective));
  json.endObject();
}

/// Cluster ids of "nc" or "rc": each must be -1 (unassigned) or one of the
/// state's `numPg` PG nodes.
std::vector<ClusterId> parseClusterIds(const JsonField& v, std::size_t numPg,
                                       const char* what) {
  return v.elements([&](const JsonField& e) {
    const std::int32_t id = e.int32();
    HCA_REQUIRE(id >= -1 && static_cast<std::int64_t>(id) <
                                static_cast<std::int64_t>(numPg),
                "SEE snapshot: '" << what << "' cluster id " << id
                                  << " is neither -1 nor one of the "
                                  << numPg << " PG nodes");
    return ClusterId(id);
  });
}

/// A state as the file holds it: `nodeCluster` is still indexed by DDG
/// node (mapWorkingSet gathers it).
SnapshotRows parseState(const JsonField& v) {
  SnapshotRows rows;
  rows.usage = v.member("us").elements([](const JsonField& e) {
    HCA_REQUIRE(e.array().size() == 3,
                "SEE snapshot: usage entry must be [alu, ag, instructions]");
    machine::ResourceUsage u;
    u.alu = e.at(0).int32();
    u.ag = e.at(1).int32();
    u.instructions = e.at(2).int32();
    return u;
  });
  rows.nodeCluster = parseClusterIds(v.member("nc"), rows.usage.size(), "nc");
  rows.relayCluster = parseClusterIds(v.member("rc"), rows.usage.size(), "rc");
  rows.flow = v.member("fl").elements(parseIds<ValueId>);
  rows.inNbrMask = v.member("nm").elements([](const JsonField& e) {
    return parseHexBits(e.string(), "nm");
  });
  rows.inValues = v.member("iv").elements(parseIds<ValueId>);
  rows.outValues = v.member("ov").elements(parseIds<ValueId>);
  rows.assigned = v.member("as").int32();
  rows.objective = parseDoubleBits(v.member("ob").string(), "ob");
  return rows;
}

/// The file keeps DDG-indexed states only, so the working set of their
/// snapshots is every node some state assigns, in ascending id order. For
/// a legal result that is the sub-problem's working set itself: every
/// state places all of it, and the driver builds working sets in ascending
/// id order.
void mapWorkingSet(std::vector<SnapshotRows>& states, SeeResult* result) {
  const std::size_t ddgNodes = states.front().nodeCluster.size();
  std::vector<char> assigned(ddgNodes, 0);
  for (const SnapshotRows& s : states) {
    HCA_REQUIRE(s.nodeCluster.size() == ddgNodes,
                "SEE snapshot: frontier states disagree on DDG size");
    for (std::size_t v = 0; v < ddgNodes; ++v) {
      if (s.nodeCluster[v].valid()) assigned[v] = 1;
    }
  }
  result->ddgNodes = static_cast<std::int32_t>(ddgNodes);
  for (std::size_t v = 0; v < ddgNodes; ++v) {
    if (assigned[v] != 0) {
      result->workingSet.emplace_back(static_cast<std::int32_t>(v));
    }
  }
  for (SnapshotRows& s : states) {
    std::vector<ClusterId> byPosition;
    for (const DdgNodeId n : result->workingSet) {
      byPosition.push_back(s.nodeCluster[n.index()]);
    }
    s.nodeCluster = std::move(byPosition);
  }
}

}  // namespace

void writeSeeResult(JsonWriter& json, const SeeResult& result) {
  json.beginObject();
  json.key("legal").value(result.legal);
  // "solution" is the best state (all-empty for a result without one); a
  // legal result lists every state as "alternatives", an illegal one none.
  json.key("solution");
  if (result.frontier.empty()) {
    writeState(json, SnapshotRows{}, {}, 0);
  } else {
    writeState(json, result.frontier.front().state().rows(),
               result.workingSet, result.ddgNodes);
  }
  json.key("alternatives").beginArray();
  if (result.legal) {
    for (const FrontierSnapshot& state : result.frontier) {
      writeState(json, state.state().rows(), result.workingSet,
                 result.ddgNodes);
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
  std::vector<SnapshotRows> states;
  if (result.legal) {
    states = root.member("alternatives").elements(parseState);
    HCA_REQUIRE(!states.empty(),
                "SEE snapshot: a legal result needs at least one alternative");
  } else {
    states.push_back(parseState(root.member("solution")));
  }
  mapWorkingSet(states, &result);
  for (const SnapshotRows& state : states) result.frontier.emplace_back(state);
  result.stats = parseStats(root.member("stats"));
  result.failedItem = parseItem(root.member("failedItem"));
  result.failureReason = root.member("failureReason").string();
  return result;
}

}  // namespace hca::see
