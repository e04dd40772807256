#ifndef MAB_TRACE_RECORD_H
#define MAB_TRACE_RECORD_H

#include <cstdint>
#include <stdexcept>

namespace mab {

/**
 * One dynamic instruction of a trace.
 *
 * The format is deliberately close to what trace-driven simulators like
 * ChampSim consume: a PC, an optional memory operand, and the control
 * flow information the core model needs (branch + misprediction
 * outcome, pre-resolved by the trace generator so that runs are
 * deterministic).
 */
struct TraceRecord
{
    /** Program counter of the instruction. */
    uint64_t pc = 0;

    /** Byte address of the memory operand; only valid for loads/stores. */
    uint64_t addr = 0;

    /** True if the instruction loads from memory. */
    bool isLoad = false;

    /** True if the instruction stores to memory. */
    bool isStore = false;

    /** True if the instruction is a branch. */
    bool isBranch = false;

    /**
     * True if the branch was mispredicted (the generator resolves the
     * predictor outcome so the timing model stays deterministic).
     */
    bool mispredicted = false;

    /**
     * True if this load's address depends on the value of the previous
     * load (pointer chasing); such loads serialize in the core model
     * and defeat memory-level parallelism.
     */
    bool dependsOnPrevLoad = false;

    bool isMemory() const { return isLoad || isStore; }
};

/**
 * One trace record in one 64-bit word, the format the generator
 * builds, the trace arena stores and the core model consumes:
 *
 *   bits  0..26  PC - kCodeBase
 *   bits 27..31  isLoad, isStore, isBranch, mispredicted,
 *                dependsOnPrevLoad
 *   bits 32..63  address - data base (memory records; 0 otherwise)
 *
 * The data base is the trace's, not the record's: SyntheticTrace::
 * dataBase(), whose low 32 bits are zero, held once by the generator,
 * MaterializedTrace and ReplaySource, so an address decodes as
 * base | (w >> 32). SyntheticTrace::nextWord() writes the word
 * directly; pack() is the checked encoder for other records and throws
 * on one outside the domain. Every word decodes to some record, so
 * even a hostile payload that passed the arena file's checksum
 * replays without undefined behaviour.
 *
 * The word has no initializer on purpose: chunks are allocated for
 * overwrite and every slot is written before the chunk is published.
 */
struct PackedRecord
{
    static constexpr uint64_t kCodeBase = 0x400000;
    static constexpr unsigned kPcBits = 27;
    static constexpr uint64_t kPcMask = (1ull << kPcBits) - 1;
    static constexpr uint64_t kLoad = 1ull << 27;
    static constexpr uint64_t kStore = 1ull << 28;
    static constexpr uint64_t kBranch = 1ull << 29;
    static constexpr uint64_t kMispredicted = 1ull << 30;
    static constexpr uint64_t kDependsOnPrevLoad = 1ull << 31;
    static constexpr unsigned kAddrShift = 32;
    static constexpr uint64_t kAddrOffsetMask = (1ull << kAddrShift) - 1;

    uint64_t w;

    static PackedRecord
    pack(const TraceRecord &rec, uint64_t dataBase)
    {
        const uint64_t pcOff = rec.pc - kCodeBase;
        if (pcOff > kPcMask)
            throw std::runtime_error(
                "PackedRecord: pc outside the 2^27-byte code window");
        uint64_t w = pcOff;
        if (rec.isLoad)
            w |= kLoad;
        if (rec.isStore)
            w |= kStore;
        if (rec.isBranch)
            w |= kBranch;
        if (rec.mispredicted)
            w |= kMispredicted;
        if (rec.dependsOnPrevLoad)
            w |= kDependsOnPrevLoad;
        if (rec.isMemory()) {
            if ((rec.addr & ~kAddrOffsetMask) != dataBase)
                throw std::runtime_error(
                    "PackedRecord: address outside the 4 GiB data "
                    "window");
            w |= rec.addr << kAddrShift;
        } else if (rec.addr != 0) {
            throw std::runtime_error(
                "PackedRecord: non-memory record with an address");
        }
        return PackedRecord{w};
    }

    uint64_t pc() const { return kCodeBase + (w & kPcMask); }
    bool isLoad() const { return (w & kLoad) != 0; }
    bool isStore() const { return (w & kStore) != 0; }
    bool isMemory() const { return (w & (kLoad | kStore)) != 0; }
    bool dependsOnPrevLoad() const { return (w & kDependsOnPrevLoad) != 0; }
    bool
    mispredictedBranch() const
    {
        return (w & (kBranch | kMispredicted)) == (kBranch | kMispredicted);
    }

    /** The address of a memory record (meaningless for others). */
    uint64_t addr(uint64_t dataBase) const
    {
        return dataBase | (w >> kAddrShift);
    }

    TraceRecord
    unpack(uint64_t dataBase) const
    {
        TraceRecord rec;
        rec.pc = pc();
        rec.isLoad = isLoad();
        rec.isStore = isStore();
        rec.isBranch = (w & kBranch) != 0;
        rec.mispredicted = (w & kMispredicted) != 0;
        rec.dependsOnPrevLoad = dependsOnPrevLoad();
        rec.addr = isMemory() ? addr(dataBase) : 0;
        return rec;
    }
};

static_assert(sizeof(PackedRecord) == 8,
              "PackedRecord is one word: the arena byte budget, the "
              ".maba v2 payload and the replay loop are sized around it");

/** Cache line size used throughout the simulator. */
constexpr uint64_t kLineBytes = 64;

/** Align @p addr down to its cache line base. */
constexpr uint64_t
lineAddr(uint64_t addr)
{
    return addr & ~(kLineBytes - 1);
}

} // namespace mab

#endif // MAB_TRACE_RECORD_H
