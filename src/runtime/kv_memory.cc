#include "runtime/kv_memory.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/hash.h"
#include "util/logging.h"

namespace specinfer {
namespace runtime {

KvBlockAllocator::KvBlockAllocator(size_t total_blocks,
                                   size_t block_tokens,
                                   obs::ObsContext *obs)
    : totalBlocks_(total_blocks), blockTokens_(block_tokens)
{
    SPECINFER_CHECK(total_blocks > 0, "empty KV pool");
    SPECINFER_CHECK(block_tokens > 0, "degenerate KV block size");
    if (obs != nullptr) {
        obs::MetricsRegistry &reg = obs->metrics();
        reg.gauge("kv_blocks_total")
            ->set(static_cast<int64_t>(totalBlocks_));
        gBlocksInUse_ = reg.gauge("kv_blocks_in_use");
        gActiveRequests_ = reg.gauge("kv_active_requests");
        gSharedBlocks_ = reg.gauge("kv_shared_blocks");
        cAllocFailures_ = reg.counter("kv_alloc_failures");
        cPrefixHits_ = reg.counter("kv_prefix_hits");
        cPrefixMisses_ = reg.counter("kv_prefix_misses");
        cCowCopies_ = reg.counter("kv_cow_copies");
        cSharedEvictions_ = reg.counter("kv_shared_evictions");
        publishUsage();
    }
}

void
KvBlockAllocator::publishUsage()
{
    if (gBlocksInUse_ == nullptr)
        return;
    gBlocksInUse_->set(static_cast<int64_t>(usedBlocks_));
    gActiveRequests_->set(static_cast<int64_t>(held_.size()));
    gSharedBlocks_->set(static_cast<int64_t>(shared_.size()));
}

size_t
KvBlockAllocator::blocksFor(size_t tokens) const
{
    return (tokens + blockTokens_ - 1) / blockTokens_;
}

bool
KvBlockAllocator::canReserve(uint64_t request, size_t tokens) const
{
    size_t want = blocksFor(tokens);
    size_t have = requestBlocks(request);
    if (want <= have)
        return true;
    // Zero-ref residents count as available: reserve() reclaims
    // them on demand, and a growing request never holds one (its
    // own shared blocks are referenced, hence not zero-ref).
    return want - have <= freeBlocks() + zeroRefShared_;
}

bool
KvBlockAllocator::reserve(uint64_t request, size_t tokens)
{
    size_t want = blocksFor(tokens);
    size_t have = requestBlocks(request);
    if (want <= have)
        return true;
    size_t grow = want - have;
    if (grow > freeBlocks() + zeroRefShared_) {
        ++stats_.failedReservations;
        if (cAllocFailures_ != nullptr)
            cAllocFailures_->inc();
        return false;
    }
    while (grow > freeBlocks())
        SPECINFER_CHECK(evictOneShared(),
                        "KV eviction accounting out of sync");
    held_[request].privateBlocks += grow;
    usedBlocks_ += grow;
    stats_.peakUsedBlocks =
        std::max(stats_.peakUsedBlocks, usedBlocks_);
    ++stats_.totalReservations;
    publishUsage();
    return true;
}

void
KvBlockAllocator::release(uint64_t request)
{
    auto it = held_.find(request);
    if (it == held_.end()) {
        // Double release / unknown id: a well-defined no-op rather
        // than silent corruption, but observable via stats so leak
        // hunts can assert it never happens on the hot paths.
        ++stats_.redundantReleases;
        return;
    }
    SPECINFER_CHECK(usedBlocks_ >= it->second.privateBlocks,
                    "KV pool accounting underflow");
    usedBlocks_ -= it->second.privateBlocks;
    // Shared references are dropped but the blocks stay resident:
    // the prefix is prefilled once per residency epoch, not once
    // per request, until pool pressure reclaims it.
    for (uint64_t hash : it->second.shared)
        unrefShared(hash);
    if (it->second.partial != 0)
        unrefShared(it->second.partial);
    held_.erase(it);
    publishUsage();
}

size_t
KvBlockAllocator::requestBlocks(uint64_t request) const
{
    auto it = held_.find(request);
    return it == held_.end()
               ? 0
               : it->second.privateBlocks + it->second.shared.size();
}

std::vector<uint64_t>
KvBlockAllocator::requestSharedHashes(uint64_t request) const
{
    auto it = held_.find(request);
    return it == held_.end() ? std::vector<uint64_t>{}
                             : it->second.shared;
}

uint64_t
KvBlockAllocator::requestPartial(uint64_t request) const
{
    auto it = held_.find(request);
    return it == held_.end() ? 0 : it->second.partial;
}

bool
KvBlockAllocator::sharedResident(uint64_t hash) const
{
    return shared_.find(hash) != shared_.end();
}

size_t
KvBlockAllocator::sharedRefs(uint64_t hash) const
{
    auto it = shared_.find(hash);
    return it == shared_.end() ? 0 : it->second.refs;
}

double
KvBlockAllocator::effectiveBlocks(uint64_t request) const
{
    auto it = held_.find(request);
    if (it == held_.end())
        return 0.0;
    double total = static_cast<double>(it->second.privateBlocks);
    auto fair = [this](uint64_t hash) {
        auto b = shared_.find(hash);
        SPECINFER_CHECK(b != shared_.end() && b->second.refs > 0,
                        "held shared block not resident");
        return 1.0 / static_cast<double>(b->second.refs);
    };
    for (uint64_t hash : it->second.shared)
        total += fair(hash);
    if (it->second.partial != 0)
        total += fair(it->second.partial);
    return total;
}

void
KvBlockAllocator::refShared(uint64_t hash)
{
    auto it = shared_.find(hash);
    SPECINFER_CHECK(it != shared_.end(),
                    "reference to non-resident shared block");
    if (it->second.refs == 0) {
        SPECINFER_CHECK(zeroRefShared_ > 0,
                        "zero-ref shared count out of sync");
        --zeroRefShared_;
    }
    ++it->second.refs;
}

void
KvBlockAllocator::unrefShared(uint64_t hash)
{
    auto it = shared_.find(hash);
    SPECINFER_CHECK(it != shared_.end() && it->second.refs > 0,
                    "shared block refcount underflow");
    if (--it->second.refs == 0)
        ++zeroRefShared_;
}

bool
KvBlockAllocator::evictOneShared()
{
    // Deterministic victim selection — deepest chain first, then
    // largest hash — is a pure function of the resident set, so
    // crash-recovery journal replay (which re-runs admissions
    // against a snapshot-restored table) evicts exactly the blocks
    // the live run evicted. Deepest-first also never orphans a
    // resident chain: a block's children are at least as deep.
    auto victim = shared_.end();
    for (auto it = shared_.begin(); it != shared_.end(); ++it) {
        if (it->second.refs != 0)
            continue;
        if (victim == shared_.end() ||
            it->second.depth > victim->second.depth ||
            (it->second.depth == victim->second.depth &&
             it->first > victim->first))
            victim = it;
    }
    if (victim == shared_.end())
        return false;
    const uint64_t hash = victim->first;
    auto range = children_.equal_range(victim->second.parent);
    for (auto it = range.first; it != range.second; ++it) {
        if (it->second == hash) {
            children_.erase(it);
            break;
        }
    }
    shared_.erase(victim);
    SPECINFER_CHECK(zeroRefShared_ > 0 && usedBlocks_ > 0,
                    "eviction accounting underflow");
    --zeroRefShared_;
    --usedBlocks_;
    ++stats_.sharedEvictions;
    if (cSharedEvictions_ != nullptr)
        cSharedEvictions_->inc();
    if (evictionHook_)
        evictionHook_(hash);
    return true;
}

PrefixMatch
KvBlockAllocator::matchPrefix(const std::vector<int> &prompt) const
{
    PrefixMatch match;
    const size_t full = prompt.size() / blockTokens_;
    uint64_t chain = util::kHashChainSeed;
    bool matching = true;
    for (size_t b = 0; b < full; ++b) {
        chain = util::hashTokenBlock(
            chain, prompt.data() + b * blockTokens_, blockTokens_);
        match.ownHashes.push_back(chain);
        if (matching && sharedResident(chain))
            match.hashes.push_back(chain);
        else
            matching = false;
    }
    if (!matching || match.hashes.size() < full ||
        prompt.size() % blockTokens_ != 0) {
        // Past the matched chain, a resident sibling block may still
        // share a strict prefix of our next (possibly short) block:
        // adopt its rows up to the divergence, copy-on-write later.
        const size_t at = match.hashes.size();
        const uint64_t parent = at == 0 ? util::kHashChainSeed
                                        : match.hashes.back();
        const int *rest = prompt.data() + at * blockTokens_;
        const size_t avail =
            std::min(blockTokens_, prompt.size() - at * blockTokens_);
        auto range = children_.equal_range(parent);
        for (auto it = range.first; it != range.second; ++it) {
            auto blk = shared_.find(it->second);
            if (blk == shared_.end() ||
                (at < match.ownHashes.size() &&
                 blk->first == match.ownHashes[at]))
                continue; // own full block handled above
            size_t common = 0;
            while (common < avail &&
                   blk->second.tokens[common] == rest[common])
                ++common;
            // Ties go to the smallest hash: children_ iterates in
            // insertion order, which a snapshot restore does not
            // keep, and the choice must be a pure function of the
            // resident set for recovery to adopt what the live run
            // would have.
            if (common > match.partialTokens ||
                (common > 0 && common == match.partialTokens &&
                 blk->first < match.partialHash)) {
                match.partialTokens = common;
                match.partialHash = blk->first;
            }
        }
    }
    return match;
}

size_t
KvBlockAllocator::evictableFor(const PrefixMatch &match) const
{
    // Resident blocks this admission re-references cannot double as
    // eviction fodder for it. Residency is checked per own block —
    // eviction can leave gaps in a chain (a zero-ref parent
    // reclaimed under a still-referenced child), so blocks past the
    // contiguous match may be resident too.
    size_t reused = 0;
    for (uint64_t hash : match.ownHashes) {
        auto it = shared_.find(hash);
        if (it != shared_.end() && it->second.refs == 0)
            ++reused;
    }
    if (match.partialHash != 0 && sharedRefs(match.partialHash) == 0)
        ++reused;
    SPECINFER_CHECK(zeroRefShared_ >= reused,
                    "zero-ref shared count out of sync");
    return zeroRefShared_ - reused;
}

bool
KvBlockAllocator::canAdmit(uint64_t request,
                           const std::vector<int> &prompt,
                           size_t total_tokens, bool share) const
{
    if (!share)
        return canReserve(request, total_tokens);
    SPECINFER_CHECK(held_.find(request) == held_.end(),
                    "admit for a request already holding blocks");
    const PrefixMatch match = matchPrefix(prompt);
    const size_t full = match.ownHashes.size();
    const size_t want = blocksFor(total_tokens);
    SPECINFER_CHECK(want >= full, "prompt larger than its footprint");
    size_t resident = 0;
    for (uint64_t hash : match.ownHashes)
        if (sharedResident(hash))
            ++resident;
    // Fresh interns plus the private remainder are new physical
    // blocks; resident own blocks (and the partial block) are
    // re-used.
    const size_t new_blocks = (full - resident) + (want - full);
    if (new_blocks <= freeBlocks() + evictableFor(match))
        return true;
    // A partial match is payload-only: taking it pins a block the
    // private reservation must cover anyway, so when the pool is
    // exactly one block short the partial is dropped rather than
    // wedging admission forever. admit() mirrors this decision.
    if (match.partialHash == 0)
        return false;
    PrefixMatch without = match;
    without.partialHash = 0;
    without.partialTokens = 0;
    return new_blocks <= freeBlocks() + evictableFor(without);
}

bool
KvBlockAllocator::admit(uint64_t request,
                        const std::vector<int> &prompt,
                        size_t total_tokens, bool share,
                        PrefixMatch *out_match)
{
    if (!share) {
        if (out_match != nullptr)
            *out_match = PrefixMatch{};
        return reserve(request, total_tokens);
    }
    PrefixMatch match = matchPrefix(prompt);
    const size_t full = match.ownHashes.size();
    const size_t want = blocksFor(total_tokens);
    size_t resident = 0;
    for (uint64_t hash : match.ownHashes)
        if (sharedResident(hash))
            ++resident;
    const size_t new_blocks = (full - resident) + (want - full);
    if (new_blocks > freeBlocks() + evictableFor(match)) {
        // Mirror canAdmit(): retry with the payload-only partial
        // match dropped before declaring failure — it may pin the
        // one evictable block the admission needs.
        bool salvaged = false;
        if (match.partialHash != 0) {
            match.partialHash = 0;
            match.partialTokens = 0;
            salvaged =
                new_blocks <= freeBlocks() + evictableFor(match);
        }
        if (!salvaged) {
            ++stats_.failedReservations;
            if (cAllocFailures_ != nullptr)
                cAllocFailures_->inc();
            return false;
        }
    }
    Holding &holding = held_[request];
    // Reference every resident own block (and the partial block)
    // first: once referenced they are no longer eviction
    // candidates, so the intern/reserve evictions below cannot
    // reclaim them. Residency is per block, not per chain prefix —
    // eviction gaps leave resident descendants that must be
    // re-referenced, never re-interned.
    size_t hits = 0;
    for (uint64_t hash : match.ownHashes) {
        if (!sharedResident(hash))
            continue;
        refShared(hash);
        ++hits;
    }
    if (match.partialHash != 0) {
        refShared(match.partialHash);
        holding.partial = match.partialHash;
        ++hits;
    }
    stats_.prefixHits += hits;
    if (cPrefixHits_ != nullptr && hits > 0)
        cPrefixHits_->inc(hits);
    // Intern the absent full blocks so later arrivals with the same
    // prefix share them; the holding lists every own block in chain
    // order either way.
    for (size_t b = 0; b < full; ++b) {
        const uint64_t hash = match.ownHashes[b];
        if (sharedResident(hash)) {
            holding.shared.push_back(hash);
            continue;
        }
        if (freeBlocks() == 0)
            SPECINFER_CHECK(evictOneShared(),
                            "admit eviction accounting out of sync");
        const uint64_t parent = b == 0 ? util::kHashChainSeed
                                       : match.ownHashes[b - 1];
        SharedBlock block;
        block.tokens.assign(
            prompt.begin() + static_cast<ptrdiff_t>(b * blockTokens_),
            prompt.begin() +
                static_cast<ptrdiff_t>((b + 1) * blockTokens_));
        block.parent = parent;
        block.depth = b;
        block.refs = 1;
        shared_.emplace(hash, std::move(block));
        children_.emplace(parent, hash);
        holding.shared.push_back(hash);
        ++usedBlocks_;
        ++stats_.prefixMisses;
        if (cPrefixMisses_ != nullptr)
            cPrefixMisses_->inc();
    }
    stats_.peakUsedBlocks =
        std::max(stats_.peakUsedBlocks, usedBlocks_);
    // Private remainder: reserve() counts shared blocks toward the
    // total, so it grows the holding by exactly want - full.
    SPECINFER_CHECK(reserve(request, total_tokens),
                    "admit private reservation failed after "
                    "canAdmit");
    if (out_match != nullptr)
        *out_match = std::move(match);
    return true;
}

void
KvBlockAllocator::cowShared(uint64_t request, uint64_t hash)
{
    auto it = held_.find(request);
    SPECINFER_CHECK(it != held_.end() && it->second.partial == hash,
                    "copy-on-write on a block not held as partial");
    it->second.partial = 0;
    unrefShared(hash);
    ++stats_.cowCopies;
    if (cCowCopies_ != nullptr)
        cCowCopies_->inc();
    publishUsage();
}

void
KvBlockAllocator::restoreSharedBlock(uint64_t hash, uint64_t parent,
                                     size_t depth,
                                     std::vector<int> tokens)
{
    SPECINFER_CHECK(shared_.find(hash) == shared_.end(),
                    "snapshot restores a duplicate shared block");
    SPECINFER_CHECK(freeBlocks() > 0,
                    "snapshot shared table exceeds the pool");
    SharedBlock block;
    block.tokens = std::move(tokens);
    block.parent = parent;
    block.depth = depth;
    block.refs = 0;
    shared_.emplace(hash, std::move(block));
    children_.emplace(parent, hash);
    ++usedBlocks_;
    ++zeroRefShared_;
    stats_.peakUsedBlocks =
        std::max(stats_.peakUsedBlocks, usedBlocks_);
    publishUsage();
}

void
KvBlockAllocator::restoreAcquire(uint64_t request, uint64_t hash,
                                 bool partial)
{
    refShared(hash);
    Holding &holding = held_[request];
    if (partial) {
        SPECINFER_CHECK(holding.partial == 0,
                        "snapshot holds two partial blocks");
        holding.partial = hash;
    } else {
        holding.shared.push_back(hash);
    }
    publishUsage();
}

double
KvBlockAllocator::fragmentation(size_t actual_private_tokens) const
{
    const size_t capacity_tokens = usedBlocks_ * blockTokens_;
    if (capacity_tokens == 0)
        return 0.0;
    // Resident shared blocks are full by construction; private
    // waste is whatever their reservations exceed actual tokens by.
    const size_t private_capacity =
        (usedBlocks_ - shared_.size()) * blockTokens_;
    const size_t waste =
        private_capacity -
        std::min(actual_private_tokens, private_capacity);
    return static_cast<double>(waste) /
           static_cast<double>(capacity_tokens);
}

double
KvBlockAllocator::requestFragmentation(uint64_t request,
                                       size_t actual_tokens) const
{
    const size_t capacity_tokens =
        requestBlocks(request) * blockTokens_;
    if (capacity_tokens == 0)
        return 0.0;
    const size_t waste =
        capacity_tokens - std::min(actual_tokens, capacity_tokens);
    return static_cast<double>(waste) /
           static_cast<double>(capacity_tokens);
}

} // namespace runtime
} // namespace specinfer
