//===- sim/CostModel.cpp - Analytic GPU kernel cost model ---------------------===//

#include "sim/CostModel.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

using namespace pypm;
using namespace pypm::sim;
using graph::Graph;
using graph::NodeId;
using graph::TensorType;

namespace {

double elems(const TensorType &T) {
  return static_cast<double>(T.numElements());
}
double bytes(const TensorType &T) { return static_cast<double>(T.bytes()); }

/// 2·∏(batch)·m·n·k for the matmul producing Out from A (·) B.
double matmulFlops(const TensorType &A, const TensorType &Out) {
  if (A.rank() < 2 || Out.rank() < 2)
    return 0;
  double K = static_cast<double>(A.Dims.back());
  return 2.0 * elems(Out) * K;
}

/// The kernel classes nodeCost prices with a dedicated branch.
enum class KernelClass {
  Generic, // untuned elementwise fallback
  MatMul,
  GemmEpilog,
  Cublas,
  Fmha,
  Conv2D,
  ConvEpilog,
  Softmax,
  Norm,
  Trans,
  Gelu,
  Erf,
  Pool,
  Metadata,
  Fused, // any operator of class "fused"
};

/// The one list of operators with a dedicated cost: nodeCost dispatches on
/// it, hasSpecializedCost answers from it.
constexpr std::pair<std::string_view, KernelClass> KernelOps[] = {
    {"MatMul", KernelClass::MatMul},
    {"GemmEpilog", KernelClass::GemmEpilog},
    {"GemmBiasEpilog", KernelClass::GemmEpilog},
    {"cublasMM_xyT_f32", KernelClass::Cublas},
    {"cublasMM_xyT_i8", KernelClass::Cublas},
    {"FMHA", KernelClass::Fmha},
    {"FMHAMasked", KernelClass::Fmha},
    {"Conv2D", KernelClass::Conv2D},
    {"ConvEpilog", KernelClass::ConvEpilog},
    {"Softmax", KernelClass::Softmax},
    {"LayerNorm", KernelClass::Norm},
    {"BatchNorm", KernelClass::Norm},
    {"Trans", KernelClass::Trans},
    {"Gelu", KernelClass::Gelu},
    {"Erf", KernelClass::Erf},
    {"MaxPool", KernelClass::Pool},
    {"AvgPool", KernelClass::Pool},
    {"GlobalAvgPool", KernelClass::Pool},
    {"Flatten", KernelClass::Metadata},
    {"Reshape", KernelClass::Metadata}};
constexpr std::string_view FusedClass = "fused";
constexpr size_t NumKernelOps = std::size(KernelOps);

/// The kernel class of operator \p Name of class \p Class, by interned
/// symbol: the spellings are interned once (a thread-safe static), then
/// each query compares 32-bit ids only, so concurrent const pricing
/// shares the table read-only.
KernelClass kernelOf(Symbol Name, Symbol Class) {
  static const auto Syms = [] {
    std::array<Symbol, NumKernelOps> Out;
    for (size_t I = 0; I != NumKernelOps; ++I)
      Out[I] = Symbol::intern(KernelOps[I].first);
    return Out;
  }();
  static const Symbol Fused = Symbol::intern(FusedClass);
  for (size_t I = 0; I != NumKernelOps; ++I)
    if (Syms[I] == Name)
      return KernelOps[I].second;
  return Class == Fused ? KernelClass::Fused : KernelClass::Generic;
}

} // namespace

double CostModel::roofline(double Flops, double Bytes,
                           double Efficiency) const {
  double Compute = Flops / (Device.PeakFlops * Efficiency);
  double Memory = Bytes / Device.MemBandwidth;
  return std::max(Compute, Memory) + Device.LaunchOverhead;
}

bool CostModel::hasSpecializedCost(std::string_view OpName,
                                   std::string_view OpClass) {
  for (const auto &[Name, K] : KernelOps)
    if (OpName == Name)
      return true;
  return OpClass == FusedClass;
}

KernelCost CostModel::nodeCost(const Graph &G, NodeId N) const {
  KernelCost C;
  if (G.inputs(N).empty())
    return C; // leaves (Input/Weight/Const) are resident, no kernel

  const term::Signature &Sig = G.signature();
  const KernelClass Kind = kernelOf(Sig.name(G.op(N)), Sig.opClass(G.op(N)));

  const TensorType &Out = G.type(N);
  double InBytes = 0;
  for (NodeId In : G.inputs(N))
    InBytes += bytes(G.type(In));
  double OutBytes = bytes(Out);

  C.Launches = 1;
  double Efficiency = 0.5; // default: an untuned kernel

  if (Kind == KernelClass::MatMul) {
    C.Flops = matmulFlops(G.type(G.inputs(N)[0]), Out);
    C.Bytes = InBytes + OutBytes;
    Efficiency = 0.70; // a good but generic GEMM
  } else if (Kind == KernelClass::GemmEpilog) {
    C.Flops = matmulFlops(G.type(G.inputs(N)[0]), Out) + 8 * elems(Out);
    C.Bytes = InBytes + OutBytes; // epilog runs in registers
    Efficiency = 0.80;            // hand-tuned library kernel
  } else if (Kind == KernelClass::Cublas) {
    C.Flops = matmulFlops(G.type(G.inputs(N)[0]), Out);
    C.Bytes = InBytes + OutBytes; // transpose fused into the GEMM
    Efficiency = 0.88;            // cuBLAS-grade tuning
  } else if (Kind == KernelClass::Fmha) {
    // softmax(α·QKᵀ)·V in one kernel: both matmuls' flops, softmax work,
    // but only Q, K, V, O touch memory (no S×S intermediates) — the
    // FlashAttention-style effect.
    const TensorType &Q = G.type(G.inputs(N)[0]);
    const TensorType &K = G.type(G.inputs(N)[1]);
    const TensorType &V = G.type(G.inputs(N)[2]);
    double S = Q.rank() >= 2 ? static_cast<double>(Q.Dims[Q.rank() - 2]) : 1;
    double Dk = Q.rank() >= 1 ? static_cast<double>(Q.Dims.back()) : 1;
    double Dv = V.rank() >= 1 ? static_cast<double>(V.Dims.back()) : 1;
    double Batch = elems(Q) / std::max(1.0, S * Dk);
    C.Flops = Batch * (2 * S * S * Dk + 2 * S * S * Dv + 8 * S * S);
    C.Bytes = bytes(Q) + bytes(K) + bytes(V) + OutBytes;
    if (G.inputs(N).size() == 4) // masked variant streams the mask too
      C.Bytes += bytes(G.type(G.inputs(N)[3]));
    Efficiency = 0.75;
  } else if (Kind == KernelClass::Conv2D) {
    // flops = 2 · out elems · C·kh·kw
    const TensorType &W = G.type(G.inputs(N)[1]);
    double Kernel = W.rank() == 4
                        ? static_cast<double>(W.Dims[1] * W.Dims[2] * W.Dims[3])
                        : 9;
    C.Flops = 2.0 * elems(Out) * Kernel;
    C.Bytes = InBytes + OutBytes;
    Efficiency = 0.60;
  } else if (Kind == KernelClass::ConvEpilog) {
    const TensorType &W = G.type(G.inputs(N)[1]);
    double Kernel = W.rank() == 4
                        ? static_cast<double>(W.Dims[1] * W.Dims[2] * W.Dims[3])
                        : 9;
    C.Flops = 2.0 * elems(Out) * Kernel + 8 * elems(Out);
    C.Bytes = InBytes + OutBytes;
    Efficiency = 0.72;
  } else if (Kind == KernelClass::Softmax) {
    C.Flops = 8 * elems(Out);
    C.Bytes = 2 * (InBytes + OutBytes); // two passes (max/sum, normalize)
  } else if (Kind == KernelClass::Norm) {
    C.Flops = 10 * elems(Out);
    C.Bytes = 2 * (InBytes + OutBytes);
  } else if (Kind == KernelClass::Trans) {
    C.Flops = 0;
    C.Bytes = InBytes + OutBytes; // pure data movement
  } else if (Kind == KernelClass::Gelu) {
    C.Flops = 16 * elems(Out); // erf polynomial
    C.Bytes = InBytes + OutBytes;
  } else if (Kind == KernelClass::Erf) {
    C.Flops = 12 * elems(Out);
    C.Bytes = InBytes + OutBytes;
  } else if (Kind == KernelClass::Pool) {
    C.Flops = 4 * elems(G.type(G.inputs(N)[0]));
    C.Bytes = InBytes + OutBytes;
  } else if (Kind == KernelClass::Metadata) {
    C.Flops = 0;
    C.Bytes = 0; // metadata-only
    C.Launches = 0;
    C.Seconds = 0;
    return C;
  } else if (Kind == KernelClass::Fused) {
    // A partition product: the region's summed work was recorded on the
    // node when it was fused.
    static const Symbol FlopsKey = Symbol::intern("flops");
    static const Symbol BytesKey = Symbol::intern("bytes");
    C.Flops = static_cast<double>(G.attr(N, FlopsKey).value_or(0));
    C.Bytes = static_cast<double>(
        G.attr(N, BytesKey).value_or(static_cast<int64_t>(InBytes + OutBytes)));
    Efficiency = 0.65; // JIT-compiled, better than launch-per-op
  } else {
    // Generic elementwise / unclassified: one flop-ish per element,
    // bandwidth bound.
    C.Flops = 2 * elems(Out);
    C.Bytes = InBytes + OutBytes;
  }

  C.Seconds = roofline(C.Flops, C.Bytes, Efficiency);
  return C;
}

GraphCost CostModel::graphCost(const Graph &G) const {
  GraphCost Total;
  for (NodeId N : G.topoOrder()) {
    KernelCost C = nodeCost(G, N);
    Total.Seconds += C.Seconds;
    Total.Flops += C.Flops;
    Total.Bytes += C.Bytes;
    Total.Kernels += C.Launches;
  }
  return Total;
}

GraphCost CostModel::nodesCost(const Graph &G,
                               std::span<const NodeId> Nodes) const {
  GraphCost Total;
  for (NodeId N : Nodes) {
    KernelCost C = nodeCost(G, N);
    Total.Seconds += C.Seconds;
    Total.Flops += C.Flops;
    Total.Bytes += C.Bytes;
    Total.Kernels += C.Launches;
  }
  return Total;
}

double CostModel::commitDelta(const Graph &G, std::span<const NodeId> Added,
                              std::span<const NodeId> Removed) const {
  return nodesCost(G, Added).Seconds - nodesCost(G, Removed).Seconds;
}

KernelCost CostModel::fusedRegionCost(const Graph &G,
                                      std::span<const NodeId> Interior,
                                      std::span<const NodeId> Frontier,
                                      NodeId Root) const {
  KernelCost C;
  for (NodeId N : Interior) {
    KernelCost K = nodeCost(G, N);
    C.Flops += K.Flops;
  }
  for (NodeId N : Frontier)
    C.Bytes += bytes(G.type(N));
  C.Bytes += bytes(G.type(Root));
  C.Launches = 1;
  C.Seconds = roofline(C.Flops, C.Bytes, 0.65);
  return C;
}
