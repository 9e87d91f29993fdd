#include "hca/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

#include "ddg/serialize.hpp"
#include "hca/report.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/str.hpp"

namespace hca::core {

namespace {

constexpr const char kMagic[] = "HCACHK";
/// 2: attempt records only. 1 also held sub-problem cache snapshots.
constexpr int kVersion = 2;

[[noreturn]] void fail(CheckpointError::Kind kind, const std::string& message) {
  throw CheckpointError(kind, strCat("checkpoint: ", message));
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// --- HcaStats ---------------------------------------------------------------

HcaStats parseStats(const JsonField& v) {
  HcaStats s;
  forEachRunCounter(
      [&v](const RunCounter& c, auto& value) {
        const std::optional<JsonField> m =
            c.field == see::CounterField::kRequired ? v.member(c.key)
                                                    : v.find(c.key);
        if (!m) return;  // optional and absent: 0
        if constexpr (std::is_same_v<decltype(+value), int>) {
          value = m->int32();
        } else {
          value = m->exactInt();
        }
      },
      s);
  return s;
}

}  // namespace

const char* to_string(CheckpointError::Kind kind) {
  switch (kind) {
    case CheckpointError::Kind::kBadMagic:
      return "bad-magic";
    case CheckpointError::Kind::kBadVersion:
      return "bad-version";
    case CheckpointError::Kind::kTruncated:
      return "truncated";
    case CheckpointError::Kind::kBadChecksum:
      return "bad-checksum";
    case CheckpointError::Kind::kBadPayload:
      return "bad-payload";
    case CheckpointError::Kind::kWrongRun:
      return "wrong-run";
  }
  return "unknown";
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string serializeCheckpoint(const CheckpointData& data) {
  std::ostringstream payload;
  JsonWriter json(payload);
  json.beginObject();
  json.key("fingerprint").value(data.fingerprint);
  json.key("iniMii").value(data.iniMii);
  json.key("attempts").beginArray();
  for (const CheckpointAttempt& a : data.attempts) {
    json.beginObject();
    json.key("phase").value(a.phase);
    json.key("index").value(a.index);
    json.key("target").value(a.target);
    json.key("profile").value(a.profile);
    json.key("failureReason").value(a.failureReason);
    json.key("failureLevel").value(a.failureSite.level);
    json.key("failurePath").beginArray();
    for (const int child : a.failureSite.path) json.value(child);
    json.endArray();
    json.key("stats");
    writeStatsJson(json, a.stats);
    json.endObject();
  }
  json.endArray();
  json.endObject();

  const std::string body = payload.str();
  return strCat(kMagic, " ", kVersion, " ", hex64(fnv1a64(body)), " ",
                body.size(), "\n", body);
}

CheckpointData parseCheckpoint(const std::string& text) {
  const std::size_t eol = text.find('\n');
  if (eol == std::string::npos) {
    fail(CheckpointError::Kind::kBadMagic, "missing header line");
  }
  const std::string header = text.substr(0, eol);
  std::istringstream hs(header);
  std::string magic;
  int version = 0;
  std::string checksumHex;
  std::uint64_t payloadLen = 0;
  if (!(hs >> magic) || magic != kMagic) {
    fail(CheckpointError::Kind::kBadMagic,
         strCat("not a checkpoint file (header '", header, "')"));
  }
  if (!(hs >> version) || !(hs >> checksumHex) || !(hs >> payloadLen)) {
    fail(CheckpointError::Kind::kBadMagic,
         strCat("malformed header '", header, "'"));
  }
  if (version != kVersion) {
    fail(CheckpointError::Kind::kBadVersion,
         strCat("unsupported version ", version, " (expected ", kVersion,
                ")"));
  }
  const std::string body = text.substr(eol + 1);
  if (body.size() != payloadLen) {
    fail(CheckpointError::Kind::kTruncated,
         strCat("payload is ", body.size(), " bytes, header promises ",
                payloadLen));
  }
  if (checksumHex.size() != 16 || hex64(fnv1a64(body)) != checksumHex) {
    fail(CheckpointError::Kind::kBadChecksum,
         "payload does not match the header checksum");
  }

  // Shape errors arrive as InvalidArgumentError, already prefixed
  // "checkpoint: "; rewrap so callers see one structured error type.
  try {
    const JsonReader reader("checkpoint");
    const JsonValue doc = reader.parse(body);
    const JsonField root = reader.root(doc);
    CheckpointData data;
    data.fingerprint = root.member("fingerprint").string();
    data.iniMii = root.member("iniMii").int32();
    data.attempts = root.member("attempts").elements([](const JsonField& a) {
      CheckpointAttempt attempt;
      attempt.phase = a.member("phase").string();
      attempt.index = a.member("index").int32();
      attempt.target = a.member("target").int32();
      attempt.profile = a.member("profile").int32();
      attempt.failureReason = a.member("failureReason").string();
      // Optional: a file without the site predates it, so its fingerprint
      // differs and the resume fails with kWrongRun, not on its shape.
      if (const auto path = a.find("failurePath")) {
        attempt.failureSite.level = a.member("failureLevel").int32();
        attempt.failureSite.path =
            path->elements([](const JsonField& p) { return p.int32(); });
      }
      attempt.stats = parseStats(a.member("stats"));
      return attempt;
    });
    // One record per attempt: a second record for the same attempt means
    // the file was written by two runs sharing one manager.
    std::set<std::pair<std::string, int>> seen;
    for (const CheckpointAttempt& attempt : data.attempts) {
      if (!seen.emplace(attempt.phase, attempt.index).second) {
        reader.fail(strCat("attempt ", attempt.phase, " #", attempt.index,
                           " is recorded twice"));
      }
    }
    return data;
  } catch (const InvalidArgumentError& e) {
    throw CheckpointError(CheckpointError::Kind::kBadPayload, e.what());
  }
}

std::string runFingerprint(const ddg::Ddg& ddg,
                           const machine::DspFabricModel& model,
                           const HcaOptions& o) {
  std::ostringstream id;
  id << ddg::toText(ddg) << '\n'
     << model.config().toString() << '\n'
     << model.faults().toString() << '\n';
  // Doubles go in as bit patterns: the fingerprint must not depend on
  // printer rounding.
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return hex64(b);
  };
  const see::SeeOptions& s = o.see;
  // The literal 2 after eagerRouting is the retired retry-ladder switch. It
  // read 1 while the ladder had a third rung; checkpoints from then hold SEE
  // results and counters of that ladder, which a resume would mix into its
  // own, so the 2 makes their fingerprint differ and the resume fails with
  // kWrongRun. The literal 0 after candidateKeep is the retired op cap.
  // The beam-step slot here is a literal 0 and the hca line carries
  // `see.maxBeamSteps`: hcac used to set the budget through a copy on
  // HcaOptions that the hca line read, so existing checkpoints keep their
  // fingerprints.
  id << "see:" << s.beamWidth << ',' << s.candidateKeep << ",0,"
     << s.enableRouteAllocator << ',' << s.eagerRouting << ",2,"
     << s.maxRouteHops << ",0," << s.arenaBudgetBytes << ','
     << s.chainGrouping
     // Retired dominance-pruning flag: a literal 0 keeps the fingerprints
     // of existing checkpoints.
     << ",0"
     << ',' << bits(s.weights.iiEstimate) << ',' << bits(s.weights.copyCount)
     << ',' << bits(s.weights.loadBalance) << ','
     << bits(s.weights.criticalPath) << ',' << bits(s.weights.wiringSlack)
     << ',' << s.weights.targetIi << '\n';
  // The results-invisible driver options (deadline, threads, tracing,
  // verification) are excluded — see the header contract.
  // The leaf-parent in-neighbor cap (4), the frontier states tried (12),
  // the backtrack budget (256) and the degraded-bandwidth rung (always on,
  // 1) are driver constants now; their literals keep the fingerprints of
  // existing checkpoints.
  id << "hca:4,12,256," << o.targetIiSlack << ',' << o.searchProfiles
     << ",1," << o.enableSubproblemCache << ','
     << static_cast<int>(o.failurePolicy) << ',' << s.maxBeamSteps << ','
     << o.memoryBudgetBytes << '\n';
  return hex64(fnv1a64(id.str()));
}

CheckpointManager::CheckpointManager(std::string path)
    : path_(std::move(path)) {
  HCA_REQUIRE(!path_.empty(), "checkpoint path must not be empty");
}

bool CheckpointManager::loadForResume() {
  if (!fileExists(path_)) return false;
  CheckpointData data = parseCheckpoint(readFile(path_));
  MutexLock lock(mutex_);
  fingerprint_ = data.fingerprint;
  iniMii_ = data.iniMii;
  for (CheckpointAttempt& attempt : data.attempts) {
    const std::string key = strCat(attempt.phase, "\n", attempt.index);
    // Re-persist restored attempts on the next write: a resumed run's
    // checkpoint must stay a superset of the one it resumed from.
    recorded_.push_back(attempt);
    restored_.emplace(key, std::move(attempt));
  }
  return true;
}

void CheckpointManager::bindRun(const std::string& fingerprint, int iniMii) {
  MutexLock lock(mutex_);
  // One run per manager: a second run would re-record the first's attempts.
  HCA_CHECK(!bound_, "CheckpointManager::bindRun called twice");
  if (!restored_.empty()) {
    if (fingerprint_ != fingerprint) {
      fail(CheckpointError::Kind::kWrongRun,
           strCat("file was written by run ", fingerprint_,
                  ", this run is ", fingerprint,
                  " (different DDG, machine, faults or options)"));
    }
    if (iniMii_ != iniMii) {
      fail(CheckpointError::Kind::kWrongRun,
           strCat("file records iniMII ", iniMii_, ", this run computed ",
                  iniMii));
    }
  }
  fingerprint_ = fingerprint;
  iniMii_ = iniMii;
  bound_ = true;
}

const CheckpointAttempt* CheckpointManager::restoredAttempt(
    const std::string& phase, int index) const {
  MutexLock lock(mutex_);
  const auto it = restored_.find(strCat(phase, "\n", index));
  return it == restored_.end() ? nullptr : &it->second;
}

void CheckpointManager::noteAttempt(CheckpointAttempt attempt) {
  int total = 0;
  {
    MutexLock lock(mutex_);
    HCA_CHECK(bound_, "CheckpointManager::noteAttempt before bindRun");
    recorded_.push_back(std::move(attempt));
    total = static_cast<int>(recorded_.size());
    CheckpointData data;
    data.fingerprint = fingerprint_;
    data.iniMii = iniMii_;
    data.attempts = recorded_;
    atomicWriteFile(path_, serializeCheckpoint(data));
  }
  if (onAttemptRecorded) onAttemptRecorded(total);
}

int CheckpointManager::attemptsRecorded() const {
  MutexLock lock(mutex_);
  return static_cast<int>(recorded_.size());
}

}  // namespace hca::core
