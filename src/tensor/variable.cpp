#include "tensor/variable.h"

#include <stdexcept>
#include <unordered_set>

namespace dance::tensor {

Variable::Variable(Tensor value, bool requires_grad) : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Variable Variable::from_node(std::shared_ptr<Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

void Variable::zero_grad() const {
  if (node_ && node_->grad.numel() != 0) node_->grad.fill(0.0F);
}

namespace {
void topo_sort(const std::shared_ptr<Node>& root,
               std::vector<std::shared_ptr<Node>>& order) {
  // Iterative post-order DFS; the tape can be thousands of nodes deep for a
  // long training graph, so recursion is avoided.
  std::unordered_set<const Node*> visited;
  struct Frame {
    std::shared_ptr<Node> node;
    std::size_t next_parent = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({root});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      auto parent = top.node->parents[top.next_parent++];
      if (parent && parent->requires_grad && !visited.contains(parent.get())) {
        visited.insert(parent.get());
        stack.push_back({std::move(parent)});
      }
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }
}
}  // namespace

void Variable::backward() const {
  if (!node_) throw std::logic_error("Variable::backward on empty variable");
  if (node_->value.numel() != 1) {
    throw std::logic_error("Variable::backward requires a scalar output");
  }
  std::vector<std::shared_ptr<Node>> order;
  topo_sort(node_, order);
  for (const auto& n : order) n->grad_live = false;
  node_->ensure_grad();
  node_->grad[0] = 1.0F;
  node_->grad_live = true;
  // order is post-order (parents before children); traverse in reverse so the
  // output's gradient is fully accumulated before it is pushed to parents.
  // A node runs only if a child propagated into it (Node::grad_live); each
  // backward allocates and marks the parents it writes into.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node& n = **it;
    if (n.grad_live && n.backward) n.backward(n);
  }
}

}  // namespace dance::tensor
