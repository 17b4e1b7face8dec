/**
 * @file
 * GraphSAGE mean-aggregator convolution layer (CONVOLVE() of Fig 2),
 * with full forward/backward through the sampled blocks.
 *
 *   h_dst_out = act( h_dst * W_self + mean(h_srcs) * W_neigh + b )
 */

#ifndef SMARTSAGE_GNN_LAYERS_HH
#define SMARTSAGE_GNN_LAYERS_HH

#include <vector>

#include "subgraph.hh"
#include "tensor.hh"

namespace smartsage::gnn
{

/** Accumulated parameter gradients for one layer. */
struct SageLayerGrads
{
    Tensor2D w_self;
    Tensor2D w_neigh;
    Tensor2D bias;
};

/** Per-forward state the backward pass needs. */
struct SageContext
{
    Tensor2D h_self;           //!< dst rows of the input activations
    Tensor2D h_agg;            //!< mean-aggregated neighbor activations
    std::vector<char> relu_mask; //!< empty when the layer is linear
    const SampledBlock *block = nullptr;
    std::size_t src_rows = 0;  //!< |frontier[h+1]| for dH_src sizing

    /** Backward GEMM workspaces (reused across batches); scratch
     *  only, so mutating them through a const context is fine. */
    mutable Tensor2D d_self_ws;
    mutable Tensor2D d_agg_ws;
};

/** One GraphSAGE layer with mean aggregation. */
class SageMeanLayer
{
  public:
    /**
     * @param in_dim  input activation width
     * @param out_dim output activation width
     * @param relu    apply ReLU (hidden layers) or stay linear (output)
     * @param rng     weight init stream
     */
    SageMeanLayer(unsigned in_dim, unsigned out_dim, bool relu,
                  sim::Rng &rng);

    /**
     * Forward over one block.
     * @param h_src activations of frontier[h+1] (src_rows x in_dim)
     * @param block sampled connectivity frontier[h] <- frontier[h+1]
     * @param ctx   out-param saved for backward
     * @return activations of frontier[h] (num_dsts x out_dim)
     */
    Tensor2D forward(const Tensor2D &h_src, const SampledBlock &block,
                     SageContext &ctx) const;

    /**
     * Backward over one block.
     * @param d_out gradient w.r.t. this layer's output
     * @param ctx   context captured by forward
     * @param grads out-param: accumulated parameter gradients
     * @return gradient w.r.t. h_src (src_rows x in_dim); an empty
     *         tensor when needsInputGrad() is false
     */
    Tensor2D backward(const Tensor2D &d_out, const SageContext &ctx,
                      SageLayerGrads &grads) const;

    /**
     * Workspace-reusing forward: same math as forward(), but every
     * intermediate (including ctx tensors and @p out) is reshaped in
     * place, so a warm caller performs no allocation. The training hot
     * loop (SageModel::trainStep) runs on this path.
     */
    void forwardInto(const Tensor2D &h_src, const SampledBlock &block,
                     SageContext &ctx, Tensor2D &out) const;

    /**
     * Workspace-reusing backward. @p d_out is consumed in place (the
     * ReLU mask is applied to it) and @p grads receives the parameter
     * gradients. When needsInputGrad() is true, @p d_src receives the
     * input gradient, built in @p ctx's two scratch workspaces; when
     * it is false, the call returns right after the parameter
     * gradients and leaves @p d_src untouched.
     */
    void backwardInto(Tensor2D &d_out, const SageContext &ctx,
                      SageLayerGrads &grads, Tensor2D &d_src) const;

    /**
     * Whether backward computes the gradient w.r.t. h_src. True by
     * default. A model's input layer turns it off: its inputs are raw
     * features, not parameters, so nothing reads that gradient, and
     * skipping it saves two GEMMs, a 1/deg scatter over every edge and
     * a src_rows x in_dim buffer.
     */
    bool needsInputGrad() const { return input_grad_; }
    void setNeedsInputGrad(bool needed) { input_grad_ = needed; }

    /** SGD step: p -= lr * g. */
    void applyGrads(const SageLayerGrads &grads, float lr);

    unsigned inDim() const { return in_dim_; }
    unsigned outDim() const { return out_dim_; }
    bool hasRelu() const { return relu_; }

    const Tensor2D &wSelf() const { return w_self_; }
    const Tensor2D &wNeigh() const { return w_neigh_; }
    const Tensor2D &biasRow() const { return bias_; }

    /** Direct parameter access for gradient-check tests. */
    Tensor2D &mutableWSelf() { return w_self_; }
    Tensor2D &mutableWNeigh() { return w_neigh_; }
    Tensor2D &mutableBias() { return bias_; }

    /** Serialize every parameter tensor (checkpointing). */
    void saveState(sim::ByteWriter &writer) const;

    /** Restore parameters saved by saveState(); shapes must match. */
    void loadState(sim::ByteReader &reader);

    /** Multiply-accumulate count of one forward pass (GPU model). */
    static std::uint64_t forwardMacs(std::uint64_t num_dsts,
                                     unsigned in_dim, unsigned out_dim);

  private:
    unsigned in_dim_;
    unsigned out_dim_;
    bool relu_;
    bool input_grad_ = true;
    Tensor2D w_self_;  //!< in_dim x out_dim
    Tensor2D w_neigh_; //!< in_dim x out_dim
    Tensor2D bias_;    //!< 1 x out_dim

    /** Mean aggregate of dst rows [u0, u1) into @p agg, already
     *  shaped numDsts x in_dim; writes only those rows. */
    void aggregateRows(const Tensor2D &h_src, const SampledBlock &block,
                       Tensor2D &agg, std::size_t u0,
                       std::size_t u1) const;
};

} // namespace smartsage::gnn

#endif // SMARTSAGE_GNN_LAYERS_HH
