// Netlist: the circuit container.  Owns devices, maps node names to MNA
// indices and assigns auxiliary (branch-current) unknowns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/device.hpp"

namespace snim::circuit {

class Netlist {
public:
    Netlist() = default;
    Netlist(Netlist&&) = default;
    Netlist& operator=(Netlist&&) = default;

    /// Returns the node id for `name`, creating it if needed.  "0", "gnd"
    /// and "GND" alias the ground node (-1).
    NodeId node(std::string_view name);

    /// Node id or kGround; throws if the node does not exist.
    NodeId existing_node(std::string_view name) const;
    bool has_node(std::string_view name) const;

    const std::string& node_name(NodeId id) const;
    size_t node_count() const { return node_names_.size(); }

    /// Creates a device in place; returns a reference that stays valid for
    /// the netlist lifetime.
    template <class T, class... Args>
    T& add(Args&&... args) {
        auto dev = std::make_unique<T>(std::forward<Args>(args)...);
        T& ref = *dev;
        add_device(std::move(dev));
        return ref;
    }

    void add_device(std::unique_ptr<Device> dev);

    /// Removes the device by name (nodes stay); throws if absent.
    void remove(std::string_view name);

    Device* find(std::string_view name);
    const Device* find(std::string_view name) const;
    template <class T>
    T* find_as(std::string_view name) {
        return dynamic_cast<T*>(find(name));
    }

    const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }
    size_t device_count() const { return devices_.size(); }

    /// Bumped every time a device of this netlist changes its disabled
    /// flag.  Per netlist, so toggles in one corner's netlist never touch
    /// another's; the transient assembler compares it to decide whether
    /// its learned stamp tape still matches the enabled device set.
    std::uint64_t disable_generation() const { return disable_gen_ ? *disable_gen_ : 0; }

    /// Per-partition device view (see circuit::Partition), the single
    /// source of truth analyses use to decide between linear and Newton
    /// solves and to split transient assembly.  Classifies every device —
    /// including disabled ones, which analyses skip at stamp time anyway —
    /// so the view stays valid across ablation toggles.  Netlist order is
    /// preserved within each class.
    struct PartitionView {
        std::vector<Device*> linear_static;
        std::vector<Device*> linear_dynamic;
        std::vector<Device*> nonlinear;
        bool has_nonlinear() const { return !nonlinear.empty(); }
    };
    PartitionView partition() const;

    /// Assigns auxiliary unknown indices.  Called automatically by analyses;
    /// idempotent until a device or node is added.
    void finalize();
    bool finalized() const { return finalized_; }

    /// Total unknowns (nodes + branch currents); requires finalize().
    size_t unknown_count() const;

    /// Creates a fresh unique node (used by extractors for internal nodes).
    NodeId fresh_node(const std::string& prefix);

    /// All node names (index = NodeId).
    const std::vector<std::string>& node_names() const { return node_names_; }

    /// Moves every device and node of `other` into this netlist, renaming
    /// nodes with `node_prefix` except those listed in `shared` (which merge
    /// with same-named nodes here).  Used to stitch extracted models
    /// (substrate, interconnect, package) onto the circuit.
    void absorb(Netlist&& other, const std::string& node_prefix,
                const std::vector<std::string>& shared);

private:
    std::vector<std::unique_ptr<Device>> devices_;
    std::vector<std::string> node_names_;
    std::unordered_map<std::string, NodeId> node_index_;
    // Heap-held so devices keep a valid pointer when the netlist moves.
    std::unique_ptr<std::uint64_t> disable_gen_ = std::make_unique<std::uint64_t>(0);
    size_t aux_total_ = 0;
    bool finalized_ = false;
    int fresh_counter_ = 0;
};

} // namespace snim::circuit
