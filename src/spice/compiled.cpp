#include "finser/spice/compiled.hpp"

#include <string>

#include "finser/obs/obs.hpp"
#include "finser/util/error.hpp"

namespace finser::spice {

CompiledCircuit::CompiledCircuit(const Circuit& circuit)
    : src_(&circuit),
      node_count_(circuit.node_count()),
      unknown_count_(circuit.unknown_count()) {
  // Each record carries its fused-path flat slot indices (see
  // batch_stamp_fused):
  // matrix entry (i,j) lives at i·n + j, rhs entry i at i, and any
  // ground-touching stamp is redirected to the trailing scratch slot (n²
  // resp. n) so the inner loop needs no kGround branches — the scratch
  // values are written and never read, exactly mirroring Mna::add's silent
  // drop. A source's branch unknown index is fixed per circuit:
  // branch_offset is always node_count() in both engine paths
  // (StampContext::branch_index).
  const std::size_t n = unknown_count_;
  const auto ms = [n](std::size_t i, std::size_t j) {
    return static_cast<Slot>((i == kGround || j == kGround) ? n * n
                                                            : i * n + j);
  };
  const auto rs = [n](std::size_t i) {
    return static_cast<Slot>(i == kGround ? n : i);
  };
  const auto op = [](Kind kind, std::size_t idx) {
    return Op{kind, static_cast<std::uint32_t>(idx)};
  };

  ops_.reserve(circuit.devices().size());
  for (const auto& dev : circuit.devices()) {
    const Device* d = dev.get();
    if (const auto* r = dynamic_cast<const Resistor*>(d)) {
      ops_.push_back(op(Kind::kResistor, resistors_.size()));
      const std::size_t a = r->node_a(), b = r->node_b();
      resistors_.push_back({a, b, r->conductance(), ms(a, a), ms(b, b),
                            ms(a, b), ms(b, a)});
    } else if (const auto* c = dynamic_cast<const Capacitor*>(d)) {
      ops_.push_back(op(Kind::kCapacitor, capacitors_.size()));
      const std::size_t a = c->node_a(), b = c->node_b();
      capacitors_.push_back({a, b, c->capacitance(), ms(a, a), ms(b, b),
                             ms(a, b), ms(b, a), rs(a), rs(b)});
    } else if (const auto* p = dynamic_cast<const PwlVSource*>(d)) {
      ops_.push_back(op(Kind::kPwlVSource, pwls_.size()));
      const std::size_t a = p->node_a(), b = p->node_b();
      const std::size_t k = node_count_ + p->branch_id();
      pwls_.push_back({p, a, b, p->branch_id(), ms(a, k), ms(b, k), ms(k, a),
                       ms(k, b), rs(k)});
    } else if (const auto* v = dynamic_cast<const VSource*>(d)) {
      ops_.push_back(op(Kind::kVSource, vsources_.size()));
      const std::size_t a = v->node_a(), b = v->node_b();
      const std::size_t k = node_count_ + v->branch_id();
      vsources_.push_back({v, a, b, v->branch_id(), v->voltage(), ms(a, k),
                           ms(b, k), ms(k, a), ms(k, b), rs(k)});
    } else if (const auto* s = dynamic_cast<const PulseISource*>(d)) {
      ops_.push_back(op(Kind::kPulseISource, isources_.size()));
      isources_.push_back({s, s->node_from(), s->node_to(), s->shape(),
                           rs(s->node_from()), rs(s->node_to())});
    } else if (const auto* m = dynamic_cast<const Mosfet*>(d)) {
      ops_.push_back(op(Kind::kMosfet, mosfets_.size()));
      const std::size_t dn = m->drain(), g = m->gate(), sn = m->source();
      mosfets_.push_back(
          {m, dn, g, sn, &m->model(), m->nfin(), m->delta_vt(),
           m->temperature(),
           bake_finfet(m->model(), m->delta_vt(), m->nfin(), m->temperature()),
           ms(dn, dn), ms(dn, g), ms(dn, sn), ms(sn, dn), ms(sn, g), ms(sn, sn),
           rs(dn), rs(sn)});
    } else {
      throw util::InvalidArgument(
          std::string("CompiledCircuit: unsupported device kind '") +
          d->kind() + "'");
    }
  }

  // Structural pattern: every device matrix slot (ground stamps land in the
  // scratch slot n², outside the matrix) plus the node diagonals DC's gmin
  // shunt adds to.
  const std::size_t words = lu_mask_words(n);
  lu_pattern_.assign(n * words, 0);
  const auto mark = [&](Slot s) {
    if (s == n * n) return;
    const std::size_t row = s / n;
    const std::size_t col = s % n;
    lu_pattern_[row * words + col / 64] |= std::uint64_t{1} << (col % 64);
  };
  for (const ResistorRec& r : resistors_) {
    for (const Slot s : {r.s_aa, r.s_bb, r.s_ab, r.s_ba}) mark(s);
  }
  for (const CapacitorRec& c : capacitors_) {
    for (const Slot s : {c.s_aa, c.s_bb, c.s_ab, c.s_ba}) mark(s);
  }
  for (const VSourceRec& v : vsources_) {
    for (const Slot s : {v.s_ak, v.s_bk, v.s_ka, v.s_kb}) mark(s);
  }
  for (const PwlRec& p : pwls_) {
    for (const Slot s : {p.s_ak, p.s_bk, p.s_ka, p.s_kb}) mark(s);
  }
  for (const MosRec& m : mosfets_) {
    for (const Slot s : {m.s_dd, m.s_dg, m.s_ds, m.s_sd, m.s_sg, m.s_ss}) {
      mark(s);
    }
  }
  for (std::size_t i = 0; i < node_count_ && i < n; ++i) {
    mark(static_cast<Slot>(i * n + i));
  }
  FINSER_OBS_COUNT("spice.compiled.compiles", 1);
}

void CompiledCircuit::rebind() {
  // Only parameters with device setters can have moved; topology, resistor
  // and capacitor values and PWL tables are immutable by construction.
  for (VSourceRec& rec : vsources_) rec.v = rec.src->voltage();
  for (ISourceRec& rec : isources_) rec.shape = rec.src->shape();
  for (MosRec& rec : mosfets_) {
    rec.delta_vt = rec.src->delta_vt();
    rec.temp_k = rec.src->temperature();
    rec.plan = bake_finfet(*rec.model, rec.delta_vt, rec.nfin, rec.temp_k);
  }
  FINSER_OBS_COUNT("spice.compiled.rebinds", 1);
}

}  // namespace finser::spice
