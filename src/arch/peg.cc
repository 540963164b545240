/**
 * @file
 * PEG model implementation.
 */

#include "arch/peg.h"

namespace chason {
namespace arch {

void
BankStamps::reset(std::size_t depth)
{
    depth_ = depth;
    lastWrite_.clear(); // keeps the capacity for the next first write
}

void
AccumulatorBank::reset(std::size_t depth)
{
    stamps_.reset(depth);
    if (sums_.size() == depth && !dirty_)
        return;
    sums_.assign(depth, 0.0f);
    dirty_ = false;
}

float
AccumulatorBank::value(std::uint32_t addr) const
{
    chason_assert(addr < sums_.size(), "bank address %u beyond depth %zu",
                  addr, sums_.size());
    return sums_[addr];
}

void
XWindowBuffer::load(const std::vector<float> &x, std::uint32_t base,
                    std::uint32_t len)
{
    chason_assert(static_cast<std::size_t>(base) + len <= x.size(),
                  "window [%u, %u) outside x of size %zu", base,
                  base + len, x.size());
    base_ = base;
    window_.assign(x.begin() + base, x.begin() + base + len);
}

float
XWindowBuffer::at(std::uint32_t global_col) const
{
    chason_assert(global_col >= base_ &&
                      global_col - base_ < window_.size(),
                  "column %u outside loaded window [%u, %zu)", global_col,
                  base_, base_ + window_.size());
    return window_[global_col - base_];
}

Pe::Pe(unsigned migration_depth, unsigned pes)
    : banks_(1 + static_cast<std::size_t>(migration_depth) * pes),
      pes_(pes)
{
}

void
Pe::reset(std::size_t uram_depth)
{
    for (AccumulatorBank &bank : banks_)
        bank.reset(uram_depth);
}

void
Pe::process(const sched::Slot &slot, const XWindowBuffer &x,
            std::int64_t beat, const sched::SchedConfig &config,
            unsigned my_channel, unsigned my_pe)
{
    if (!slot.valid)
        return; // explicit zero: MAC skipped, PE idle this beat

    const sched::LaneMap map(config);
    const float product = slot.value * x.at(slot.col);
    const std::uint32_t local_row =
        map.localRowOf(slot.row) % config.rowsPerLanePerPass;

    if (slot.pvt) {
        chason_assert(slot.chSrc == my_channel && slot.peSrc == my_pe,
                      "private slot of lane (%u,%u) routed to (%u,%u)",
                      slot.chSrc, slot.peSrc, my_channel, my_pe);
        banks_[0].accumulate(local_row, product, beat, config.rawDistance);
        return;
    }

    const unsigned distance =
        (slot.chSrc + config.channels - my_channel) % config.channels;
    chason_assert(distance >= 1 && distance <= migrationDepth(),
                  "migrated slot from channel %u needs distance %u, PE "
                  "supports %u", slot.chSrc, distance, migrationDepth());
    chason_assert(slot.peSrc < pes_, "PE_src %u out of range", slot.peSrc);
    banks_[routingTag(distance, slot.peSrc, pes_)].accumulate(
        local_row, product, beat, config.rawDistance);
}

const AccumulatorBank &
Pe::shared(unsigned distance, unsigned src_pe) const
{
    chason_assert(distance >= 1 && distance <= migrationDepth(),
                  "shared distance %u out of range", distance);
    chason_assert(src_pe < pes_, "source PE %u out of range", src_pe);
    return banks_[routingTag(distance, src_pe, pes_)];
}

Peg::Peg(const sched::SchedConfig &config, unsigned migration_depth)
{
    pes_.reserve(config.pesPerGroup());
    for (unsigned p = 0; p < config.pesPerGroup(); ++p)
        pes_.emplace_back(migration_depth, config.pesPerGroup());
}

void
Peg::reset(std::size_t uram_depth)
{
    for (Pe &pe : pes_)
        pe.reset(uram_depth);
}

Pe &
Peg::pe(unsigned p)
{
    chason_assert(p < pes_.size(), "PE %u out of range", p);
    return pes_[p];
}

const Pe &
Peg::pe(unsigned p) const
{
    chason_assert(p < pes_.size(), "PE %u out of range", p);
    return pes_[p];
}

std::vector<float>
Peg::reduceShared(unsigned distance, unsigned src_pe) const
{
    chason_assert(!pes_.empty(), "PEG without PEs");
    const std::size_t depth = pes_.front().shared(distance, src_pe).depth();
    std::vector<float> reduced(depth);
    reduceSharedInto(distance, src_pe, reduced.data());
    return reduced;
}

void
Peg::reduceSharedInto(unsigned distance, unsigned src_pe,
                      float *out) const
{
    chason_assert(!pes_.empty(), "PEG without PEs");
    const std::size_t depth = pes_.front().shared(distance, src_pe).depth();
    const float *leaf[kMaxLeaves];
    const std::size_t n = pes_.size();
    chason_assert(n <= kMaxLeaves, "PEG with more than %zu PEs",
                  kMaxLeaves);
    for (std::size_t i = 0; i < n; ++i)
        leaf[i] = pes_[i].shared(distance, src_pe).data();

    // Adder-tree order: pairwise over the eight ScUGs. Summation order
    // matches a balanced tree, like the hardware — evaluated one
    // address at a time, so nothing is allocated per sweep. An odd
    // stage carries its last operand up unchanged, exactly as the
    // staged formulation did.
    for (std::uint32_t a = 0; a < depth; ++a) {
        float v[kMaxLeaves];
        for (std::size_t i = 0; i < n; ++i)
            v[i] = leaf[i][a];
        std::size_t m = n;
        while (m > 1) {
            const std::size_t half = m / 2;
            for (std::size_t i = 0; i < half; ++i)
                v[i] = v[2 * i] + v[2 * i + 1];
            if (m % 2 == 1)
                v[half] = v[m - 1];
            m = half + (m % 2);
        }
        out[a] = v[0];
    }
}

} // namespace arch
} // namespace chason
