#include "see/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "see/solution_ops.hpp"

namespace hca::see {

namespace {

template <typename T>
void copyInto(T* dst, const std::vector<T>& src) {
  if (!src.empty()) std::memcpy(dst, src.data(), src.size() * sizeof(T));
}

template <typename T>
void copyInto(T* dst, const T* src, std::size_t count) {
  if (count != 0) std::memcpy(dst, src, count * sizeof(T));
}

bool critKeyLess(const CritTerm& a, const CritTerm& b) { return a.key < b.key; }

/// True when CSR row `row` holds `v`.
bool rowContains(const std::int32_t* off, const ValueId* vals,
                 std::size_t row, ValueId v) {
  return std::find(vals + off[row], vals + off[row + 1], v) !=
         vals + off[row + 1];
}

/// Writes a snapshot's CSR rows (per PG node, or per arc): each row is the
/// parent's row followed by the delta's additions to it in append order —
/// the chronological order of the mutations.
/// Between touched rows the parent's layout only shifts by the additions
/// before it, so each untouched run of rows moves with one memcpy and a
/// shifted offset copy: the cost follows the edits, not the row count.
/// `touched` is scratch.
template <typename Row>
void mergeCsr(std::int32_t rows, const std::int32_t* parentOff,
              const ValueId* parentVals,
              const std::vector<std::pair<Row, ValueId>>& adds,
              std::vector<std::int32_t>& touched, std::int32_t* off,
              ValueId* vals) {
  touched.clear();
  for (const auto& add : adds) touched.push_back(add.first.value());
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  std::int32_t shift = 0;
  std::int32_t next = 0;  // first row not written yet
  const auto copyRowsUpTo = [&](std::int32_t end) {  // rows [next, end)
    for (std::int32_t i = next; i < end; ++i) off[i] = parentOff[i] + shift;
    copyInto(vals + parentOff[next] + shift, parentVals + parentOff[next],
             static_cast<std::size_t>(parentOff[end] - parentOff[next]));
    next = end;
  };
  for (const std::int32_t row : touched) {
    copyRowsUpTo(row + 1);
    std::int32_t slot = parentOff[row + 1] + shift;
    for (const auto& [r, v] : adds) {
      if (r.value() == row) vals[slot++] = v;
    }
    shift = slot - parentOff[row + 1];
  }
  copyRowsUpTo(rows);
  off[rows] = parentOff[rows] + shift;
}

/// Lays arrays out in one block, aligned as the types require: with a null
/// base it only measures (the sizing pass), with the block it places them
/// at the same offsets.
class BlockLayout {
 public:
  explicit BlockLayout(std::byte* base) : base_(base) {}

  template <typename T>
  T* allocateArray(std::size_t count) {
    offset_ = (offset_ + alignof(T) - 1) & ~(alignof(T) - 1);
    T* at = base_ == nullptr ? nullptr : reinterpret_cast<T*>(base_ + offset_);
    offset_ += count * sizeof(T);
    return at;
  }
  [[nodiscard]] std::size_t size() const { return offset_; }

 private:
  std::byte* base_;
  std::size_t offset_ = 0;
};

}  // namespace

template <typename Alloc>
void FlatSolution::allocateArrays(const Shape& shape, Alloc& alloc) {
  numWs_ = shape.numWs;
  numRelays_ = shape.numRelays;
  numPg_ = shape.numPg;
  numArcs_ = shape.numArcs;
  const auto n = static_cast<std::size_t>(shape.numWs);
  const auto r = static_cast<std::size_t>(shape.numRelays);
  const auto p = static_cast<std::size_t>(shape.numPg);
  const auto a = static_cast<std::size_t>(shape.numArcs);
  nodeCluster_ = alloc.template allocateArray<ClusterId>(n);
  relayCluster_ = alloc.template allocateArray<ClusterId>(r);
  usage_ = alloc.template allocateArray<machine::ResourceUsage>(p);
  inNbrMask_ = alloc.template allocateArray<std::uint64_t>(p);
  inCount_ = alloc.template allocateArray<std::int32_t>(p);
  outCount_ = alloc.template allocateArray<std::int32_t>(p);
  inOff_ = alloc.template allocateArray<std::int32_t>(p + 1);
  inVals_ = alloc.template allocateArray<ValueId>(
      static_cast<std::size_t>(shape.inTotal));
  outOff_ = alloc.template allocateArray<std::int32_t>(p + 1);
  outVals_ = alloc.template allocateArray<ValueId>(
      static_cast<std::size_t>(shape.outTotal));
  flowOff_ = alloc.template allocateArray<std::int32_t>(a + 1);
  flowVals_ = alloc.template allocateArray<ValueId>(
      static_cast<std::size_t>(shape.flowTotal));
  critTerms_ = alloc.template allocateArray<CritTerm>(
      static_cast<std::size_t>(shape.critTotal));
  numCritTerms_ = shape.critTotal;
}

FlatSolution* FlatSolution::create(const Shape& shape, MonotonicArena& arena) {
  auto* flat = new (arena.allocate(sizeof(FlatSolution), alignof(FlatSolution)))
      FlatSolution;
  flat->allocateArrays(shape, arena);
  return flat;
}

FlatSolution::Shape FlatSolution::shape() const {
  Shape shape;
  shape.numWs = numWs_;
  shape.numRelays = numRelays_;
  shape.numPg = numPg_;
  shape.numArcs = numArcs_;
  shape.inTotal = inOff_[numPg_];
  shape.outTotal = outOff_[numPg_];
  shape.flowTotal = flowOff_[numArcs_];
  shape.critTotal = numCritTerms_;
  return shape;
}

FlatSolution* FlatSolution::fromRows(const SnapshotRows& rows,
                                     MonotonicArena& arena) {
  Shape shape;
  shape.numWs = static_cast<std::int32_t>(rows.nodeCluster.size());
  shape.numRelays = static_cast<std::int32_t>(rows.relayCluster.size());
  shape.numPg = static_cast<std::int32_t>(rows.usage.size());
  shape.numArcs = static_cast<std::int32_t>(rows.flow.size());
  for (std::size_t i = 0; i < rows.usage.size(); ++i) {
    shape.inTotal += static_cast<std::int32_t>(rows.inValues[i].size());
    shape.outTotal += static_cast<std::int32_t>(rows.outValues[i].size());
  }
  for (const auto& values : rows.flow) {
    shape.flowTotal += static_cast<std::int32_t>(values.size());
  }
  FlatSolution* flat = create(shape, arena);
  copyInto(flat->nodeCluster_, rows.nodeCluster);
  copyInto(flat->relayCluster_, rows.relayCluster);
  copyInto(flat->usage_, rows.usage);
  copyInto(flat->inNbrMask_, rows.inNbrMask);
  const auto fillCsr = [](const std::vector<std::vector<ValueId>>& lists,
                          std::int32_t* off, ValueId* vals,
                          std::int32_t* counts) {
    std::int32_t at = 0;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      off[i] = at;
      if (counts != nullptr) {
        counts[i] = static_cast<std::int32_t>(lists[i].size());
      }
      copyInto(vals + at, lists[i]);
      at += static_cast<std::int32_t>(lists[i].size());
    }
    off[lists.size()] = at;
    return at;
  };
  fillCsr(rows.inValues, flat->inOff_, flat->inVals_, flat->inCount_);
  fillCsr(rows.outValues, flat->outOff_, flat->outVals_, flat->outCount_);
  flat->totalCopies_ =
      fillCsr(rows.flow, flat->flowOff_, flat->flowVals_, nullptr);
  flat->assigned_ = rows.assigned;
  flat->objective_ = rows.objective;
  return flat;
}

FlatSolution* FlatSolution::initial(const PreparedProblem& prepared,
                                    MonotonicArena& arena) {
  const auto& pg = *prepared.problem().pg;
  const auto p = static_cast<std::size_t>(pg.numNodes());
  SnapshotRows rows;
  rows.nodeCluster.assign(prepared.problem().workingSet.size(),
                          ClusterId::invalid());
  rows.relayCluster.assign(prepared.problem().relayValues.size(),
                           ClusterId::invalid());
  rows.usage.resize(p);
  rows.inNbrMask.assign(p, 0);
  rows.inValues.resize(p);
  rows.outValues.resize(p);
  rows.flow.resize(static_cast<std::size_t>(pg.numArcs()));
  for (const ClusterId in : pg.inputNodes()) {
    auto& sent = rows.outValues[in.index()];
    for (const ValueId v : pg.node(in).boundaryValues) {
      if (std::find(sent.begin(), sent.end(), v) == sent.end()) {
        sent.push_back(v);
      }
    }
  }
  FlatSolution* flat = fromRows(rows, arena);
  flat->wsIndexOf_ = prepared.wsIndexTable();
  return flat;
}

const FlatSolution* FlatSolution::fromDelta(DeltaSolution& delta,
                                            MonotonicArena& arena) {
  const FlatSolution& parent = *delta.parent_;
  const std::int32_t numPg = parent.numPg_;
  const std::int32_t numArcs = parent.numArcs_;
  Shape shape = parent.shape();
  shape.inTotal += static_cast<std::int32_t>(delta.inAdds_.size());
  shape.outTotal += static_cast<std::int32_t>(delta.outAdds_.size());
  shape.flowTotal += static_cast<std::int32_t>(delta.flowAdds_.size());
  shape.critTotal += static_cast<std::int32_t>(delta.critAdds_.size());
  FlatSolution* flat = create(shape, arena);

  flat->wsIndexOf_ = parent.wsIndexOf_;
  copyInto(flat->nodeCluster_, delta.nodeCluster_);
  copyInto(flat->relayCluster_, delta.relayCluster_);
  copyInto(flat->usage_, delta.usage_);
  copyInto(flat->inNbrMask_, delta.inNbrMask_);
  copyInto(flat->inCount_, delta.inCount_);
  copyInto(flat->outCount_, delta.outCount_);

  mergeCsr(numPg, parent.inOff_, parent.inVals_, delta.inAdds_,
           delta.touchedRows_, flat->inOff_, flat->inVals_);
  mergeCsr(numPg, parent.outOff_, parent.outVals_, delta.outAdds_,
           delta.touchedRows_, flat->outOff_, flat->outVals_);
  mergeCsr(numArcs, parent.flowOff_, parent.flowVals_, delta.flowAdds_,
           delta.touchedRows_, flat->flowOff_, flat->flowVals_);

  // Merge the sorted parent terms with the additions, sorted in place
  // (keys are unique, so the order — and a repeat sort — is deterministic).
  std::sort(delta.critAdds_.begin(), delta.critAdds_.end(), critKeyLess);
  std::merge(parent.critTerms_, parent.critTerms_ + parent.numCritTerms_,
             delta.critAdds_.begin(), delta.critAdds_.end(), flat->critTerms_,
             critKeyLess);

  flat->totalCopies_ = delta.totalCopies_;
  flat->assigned_ = delta.assigned_;
  flat->objective_ = delta.objective_;
  return flat;
}

machine::CopyFlow FlatSolution::copyFlow() const {
  machine::CopyFlow flow;
  flow.resetArcs(static_cast<std::size_t>(numArcs_));
  for (std::int32_t a = 0; a < numArcs_; ++a) {
    for (std::int32_t j = flowOff_[a]; j < flowOff_[a + 1]; ++j) {
      flow.addCopy(PgArcId(a), flowVals_[j]);
    }
  }
  return flow;
}

bool FlatSolution::valueDelivered(ClusterId dst, ValueId value) const {
  return rowContains(inOff_, inVals_, dst.index(), value);
}

bool FlatSolution::valueSent(ClusterId src, ValueId value) const {
  return rowContains(outOff_, outVals_, src.index(), value);
}

bool FlatSolution::flowContains(PgArcId arc, ValueId v) const {
  return rowContains(flowOff_, flowVals_, arc.index(), v);
}

FrontierSnapshot::FrontierSnapshot(const FlatSolution& state) {
  FlatSolution::Shape shape = state.shape();
  shape.critTotal = 0;
  allocate(shape);
  const auto p = static_cast<std::size_t>(shape.numPg);
  const auto a = static_cast<std::size_t>(shape.numArcs);
  copyInto(state_.nodeCluster_, state.nodeCluster_,
           static_cast<std::size_t>(shape.numWs));
  copyInto(state_.relayCluster_, state.relayCluster_,
           static_cast<std::size_t>(shape.numRelays));
  copyInto(state_.usage_, state.usage_, p);
  copyInto(state_.inNbrMask_, state.inNbrMask_, p);
  copyInto(state_.inCount_, state.inCount_, p);
  copyInto(state_.outCount_, state.outCount_, p);
  copyInto(state_.inOff_, state.inOff_, p + 1);
  copyInto(state_.inVals_, state.inVals_,
           static_cast<std::size_t>(shape.inTotal));
  copyInto(state_.outOff_, state.outOff_, p + 1);
  copyInto(state_.outVals_, state.outVals_,
           static_cast<std::size_t>(shape.outTotal));
  copyInto(state_.flowOff_, state.flowOff_, a + 1);
  copyInto(state_.flowVals_, state.flowVals_,
           static_cast<std::size_t>(shape.flowTotal));
  state_.totalCopies_ = state.totalCopies_;
  state_.assigned_ = state.assigned_;
  state_.objective_ = state.objective_;
}

void FrontierSnapshot::allocate(const FlatSolution::Shape& shape) {
  BlockLayout sizing(nullptr);
  state_.allocateArrays(shape, sizing);
  blockBytes_ = sizing.size();
  block_ = std::make_unique_for_overwrite<std::byte[]>(blockBytes_);
  BlockLayout placing(block_.get());
  state_.allocateArrays(shape, placing);
}

void DeltaSolution::init(const PreparedProblem& prepared) {
  const auto& pg = *prepared.problem().pg;
  wsIndexOf_ = prepared.wsIndexTable();
  nodeCluster_.resize(prepared.problem().workingSet.size());
  relayCluster_.resize(prepared.problem().relayValues.size());
  const auto p = static_cast<std::size_t>(pg.numNodes());
  usage_.resize(p);
  inNbrMask_.resize(p);
  inCount_.resize(p);
  outCount_.resize(p);
}

void DeltaSolution::reset(const FlatSolution* parent,
                          const ParentScores* parentScores) {
  parent_ = parent;
  parentScores_ = parentScores;
  touched_ = 0;
  copyInto(nodeCluster_.data(), parent->nodeCluster_, nodeCluster_.size());
  copyInto(relayCluster_.data(), parent->relayCluster_, relayCluster_.size());
  copyInto(usage_.data(), parent->usage_, usage_.size());
  copyInto(inNbrMask_.data(), parent->inNbrMask_, inNbrMask_.size());
  copyInto(inCount_.data(), parent->inCount_, inCount_.size());
  copyInto(outCount_.data(), parent->outCount_, outCount_.size());
  inAdds_.clear();
  outAdds_.clear();
  flowAdds_.clear();
  critAdds_.clear();
  totalCopies_ = parent->totalCopies_;
  assigned_ = parent->assigned_;
  objective_ = 0.0;
}

bool DeltaSolution::valueDelivered(ClusterId dst, ValueId value) const {
  if (parent_->valueDelivered(dst, value)) return true;
  for (const auto& [d, v] : inAdds_) {
    if (d == dst && v == value) return true;
  }
  return false;
}

bool DeltaSolution::flowContains(PgArcId arc, ValueId value) const {
  if (parent_->flowContains(arc, value)) return true;
  for (const auto& [a, v] : flowAdds_) {
    if (a == arc && v == value) return true;
  }
  return false;
}

bool DeltaSolution::valueSentFrom(ClusterId src, ValueId value) const {
  if (parent_->valueSent(src, value)) return true;
  for (const auto& [s, v] : outAdds_) {
    if (s == src && v == value) return true;
  }
  return false;
}

bool DeltaSolution::addFlowCopy(PgArcId arc, ClusterId src, ClusterId dst,
                                ValueId value) {
  if (flowContains(arc, value)) return false;
  flowAdds_.emplace_back(arc, value);
  ++totalCopies_;
  touched_ |= detail::pgBit(src) | detail::pgBit(dst);
  inNbrMask_[dst.index()] |= detail::pgBit(src);
  if (!valueDelivered(dst, value)) {
    inAdds_.emplace_back(dst, value);
    ++inCount_[dst.index()];
  }
  if (!valueSentFrom(src, value)) {
    outAdds_.emplace_back(src, value);
    ++outCount_[src.index()];
  }
  return true;
}

std::uint64_t DeltaSolution::signature() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&](std::int32_t v) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    h *= 1099511628211ULL;
  };
  for (const ClusterId c : nodeCluster_) mix(c.value());
  for (const ClusterId c : relayCluster_) mix(c.value());
  return h;
}

void buildParentScores(const PreparedProblem& prepared,
                       const FlatSolution& parent, const ClusterTerms* terms,
                       ParentScores& scores) {
  scores.terms = terms;
  const int target = miiTarget(prepared);
  const std::size_t n = prepared.clusters().size();
  scores.scan.resize(n + 1);
  ClusterScan scan(target);
  for (std::size_t i = 0; i < n; ++i) {
    scores.scan[i] = scan;
    scan.add(terms[i], target);
  }
  scores.scan[n] = scan;
  const auto maxHeight = static_cast<double>(prepared.maxWsHeight());
  scores.penalty.resize(static_cast<std::size_t>(parent.numCritTerms_) + 1);
  double penalty = 0;
  scores.penalty[0] = penalty;
  for (std::int32_t k = 0; k < parent.numCritTerms_; ++k) {
    penalty += static_cast<double>(parent.critTerms_[k].num) / maxHeight;
    scores.penalty[static_cast<std::size_t>(k) + 1] = penalty;
  }
}

double DeltaSolution::criticalPathScore(const PreparedProblem& prepared) {
  std::sort(critAdds_.begin(), critAdds_.end(), critKeyLess);
  const auto maxHeight = static_cast<double>(prepared.maxWsHeight());
  const CritTerm* p = parent_->critTerms_;
  const CritTerm* pEnd = p + parent_->numCritTerms_;
  auto d = critAdds_.cbegin();
  const auto dEnd = critAdds_.cend();
  double penalty = 0;
  if (parentScores_ != nullptr) {
    // The merge takes every parent term keyed below the first addition
    // first: their sum is the parent's running penalty there. The split is
    // found from the end, over exactly the parent terms the merge below
    // then adds.
    const CritTerm* first = pEnd;
    if (d != dEnd) {
      while (first != p && first[-1].key > d->key) --first;
    }
    penalty = parentScores_->penalty[static_cast<std::size_t>(first - p)];
    p = first;
  }
  while (p != pEnd || d != dEnd) {
    const CritTerm& t =
        (d == dEnd || (p != pEnd && p->key < d->key)) ? *p++ : *d++;
    penalty += static_cast<double>(t.num) / maxHeight;
  }
  return penalty;
}

}  // namespace hca::see
