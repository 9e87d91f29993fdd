#pragma once

#include <cstdint>
#include <vector>

#include "ddg/ddg.hpp"
#include "support/ids.hpp"

/// The fully materialized placement the pipeline hands to its consumers:
/// every DDG node pinned to a computation node, with `recv` primitives
/// inserted for inter-CN operand migration (paper Section 4.1, last
/// paragraph). The HCA driver *produces* one (hca/postprocess.hpp builds it
/// from a legal HcaResult); the scheduler, the simulator and the verifier
/// *consume* it. The struct lives here — below hca in the module DAG — so
/// consumers in the sched/sim layer depend on the mapper vocabulary only,
/// never on the driver that happened to produce the mapping.
namespace hca::mapper {

struct FinalMapping {
  ddg::Ddg finalDdg;
  /// Per final-DDG node: the CN executing it (invalid for consts).
  std::vector<CnId> cnOf;
  /// Number of nodes copied from the original DDG (recvs follow).
  std::int32_t numOriginalNodes = 0;

  struct RecvInfo {
    DdgNodeId recvNode;  // in finalDdg
    ValueId value;       // original producer
    CnId cn;
    bool isRelay = false;
  };
  std::vector<RecvInfo> recvs;
};

}  // namespace hca::mapper
