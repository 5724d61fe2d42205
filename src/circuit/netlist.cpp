#include "circuit/netlist.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace snim::circuit {

namespace {
bool is_ground_name(std::string_view name) {
    return name == "0" || equals_nocase(name, "gnd");
}
} // namespace

NodeId Netlist::node(std::string_view name) {
    SNIM_ASSERT(!name.empty(), "empty node name");
    if (is_ground_name(name)) return kGround;
    auto it = node_index_.find(std::string(name));
    if (it != node_index_.end()) return it->second;
    const NodeId id = static_cast<NodeId>(node_names_.size());
    node_names_.emplace_back(name);
    node_index_.emplace(std::string(name), id);
    finalized_ = false;
    return id;
}

NodeId Netlist::existing_node(std::string_view name) const {
    if (is_ground_name(name)) return kGround;
    auto it = node_index_.find(std::string(name));
    if (it == node_index_.end()) raise("no node named '%.*s'", int(name.size()), name.data());
    return it->second;
}

bool Netlist::has_node(std::string_view name) const {
    return is_ground_name(name) || node_index_.count(std::string(name)) > 0;
}

const std::string& Netlist::node_name(NodeId id) const {
    static const std::string ground = "0";
    if (id == kGround) return ground;
    SNIM_ASSERT(id >= 0 && static_cast<size_t>(id) < node_names_.size(),
                "bad node id %d", id);
    return node_names_[static_cast<size_t>(id)];
}

void Netlist::add_device(std::unique_ptr<Device> dev) {
    SNIM_ASSERT(dev != nullptr, "null device");
    SNIM_ASSERT(find(dev->name()) == nullptr, "duplicate device '%s'",
                dev->name().c_str());
    if (!disable_gen_) disable_gen_ = std::make_unique<std::uint64_t>(0); // moved-from
    dev->disable_gen_ = disable_gen_.get();
    devices_.push_back(std::move(dev));
    finalized_ = false;
}

Netlist::PartitionView Netlist::partition() const {
    PartitionView v;
    for (const auto& d : devices_) {
        switch (d->partition()) {
            case Partition::LinearStatic: v.linear_static.push_back(d.get()); break;
            case Partition::LinearDynamic: v.linear_dynamic.push_back(d.get()); break;
            case Partition::Nonlinear: v.nonlinear.push_back(d.get()); break;
        }
    }
    return v;
}

void Netlist::remove(std::string_view name) {
    for (auto it = devices_.begin(); it != devices_.end(); ++it) {
        if (equals_nocase((*it)->name(), name)) {
            devices_.erase(it);
            finalized_ = false;
            return;
        }
    }
    raise("remove: no device named '%.*s'", int(name.size()), name.data());
}

Device* Netlist::find(std::string_view name) {
    for (auto& d : devices_)
        if (equals_nocase(d->name(), name)) return d.get();
    return nullptr;
}

const Device* Netlist::find(std::string_view name) const {
    for (const auto& d : devices_)
        if (equals_nocase(d->name(), name)) return d.get();
    return nullptr;
}

void Netlist::finalize() {
    if (finalized_) return;
    NodeId next = static_cast<NodeId>(node_names_.size());
    aux_total_ = 0;
    for (auto& d : devices_) {
        if (d->aux_count() > 0) {
            d->set_aux_base(next);
            next += static_cast<NodeId>(d->aux_count());
            aux_total_ += d->aux_count();
        }
    }
    finalized_ = true;
}

size_t Netlist::unknown_count() const {
    SNIM_ASSERT(finalized_, "netlist not finalized");
    return node_names_.size() + aux_total_;
}

NodeId Netlist::fresh_node(const std::string& prefix) {
    std::string name;
    do {
        name = format("%s#%d", prefix.c_str(), fresh_counter_++);
    } while (node_index_.count(name));
    return node(name);
}

void Netlist::absorb(Netlist&& other, const std::string& node_prefix,
                     const std::vector<std::string>& shared) {
    // Build the node-name translation for the incoming netlist.
    std::unordered_map<std::string, std::string> rename;
    for (const auto& n : other.node_names_) {
        bool is_shared = false;
        for (const auto& s : shared)
            if (equals_nocase(n, s)) {
                is_shared = true;
                break;
            }
        rename[n] = is_shared ? n : node_prefix + n;
    }

    // Devices keep their NodeIds internally, so translation must happen at
    // the name level: rebuild the id -> new-id map.
    std::vector<NodeId> idmap(other.node_names_.size());
    for (size_t i = 0; i < other.node_names_.size(); ++i)
        idmap[i] = node(rename[other.node_names_[i]]);

    for (auto& d : other.devices_) {
        d->remap_nodes([&](NodeId id) { return id == kGround ? kGround : idmap[static_cast<size_t>(id)]; });
        add_device(std::move(d));
    }
    other.devices_.clear();
    other.node_names_.clear();
    other.node_index_.clear();
    finalized_ = false;
}

} // namespace snim::circuit
