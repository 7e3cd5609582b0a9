#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace dance::tensor {

/// One node of the reverse-mode autograd tape.
///
/// `backward` consumes this node's accumulated `grad` and adds the
/// appropriate contributions into each parent's `grad`. Gradients are only
/// materialized for nodes with `requires_grad` set (the flag propagates
/// through ops), and only once some child propagates into the node: the
/// child's `backward` allocates the parent's buffer and sets its `grad_live`.
/// `Variable::backward` skips a node that no child made live, so a subgraph
/// whose only consumer sends it nothing (a zero-gated op, see
/// `ops::scale_by`) costs no backward work and no gradient buffers.
struct Node {
  Tensor value;
  Tensor grad;
  bool requires_grad = false;
  bool grad_live = false;  ///< some child propagated into `grad` this pass
  std::vector<std::shared_ptr<Node>> parents;
  std::function<void(Node&)> backward;

  void ensure_grad() {
    if (grad.numel() == 0) grad = Tensor::zeros(value.shape());
  }
};

/// Lightweight handle to a `Node`; copying a Variable aliases the node.
class Variable {
 public:
  Variable() = default;

  /// Wrap a constant (no gradient) or a leaf parameter (requires_grad).
  explicit Variable(Tensor value, bool requires_grad = false);

  [[nodiscard]] bool defined() const { return node_ != nullptr; }
  [[nodiscard]] const Tensor& value() const { return node_->value; }
  Tensor& value() { return node_->value; }
  [[nodiscard]] const Tensor& grad() const { return node_->grad; }
  [[nodiscard]] bool requires_grad() const { return node_ && node_->requires_grad; }

  [[nodiscard]] const std::vector<int>& shape() const { return node_->value.shape(); }

  std::shared_ptr<Node>& node() { return node_; }
  [[nodiscard]] const std::shared_ptr<Node>& node() const { return node_; }

  /// Run reverse-mode accumulation from this (scalar) variable.
  /// Seeds d(this)/d(this) = 1 and walks the tape in reverse topological
  /// order. Throws if this variable is not a scalar. (Const because a
  /// Variable is a shared handle; the underlying node's grad buffers are
  /// mutated.)
  void backward() const;

  /// Zero this node's gradient buffer (if allocated).
  void zero_grad() const;

  static Variable from_node(std::shared_ptr<Node> node);

 private:
  std::shared_ptr<Node> node_;
};

}  // namespace dance::tensor
