/**
 * @file
 * Best-effort payload cache for shared KV prefix blocks.
 *
 * The runtime's KvBlockAllocator decides *which* prompt-prefix blocks
 * are shared (deterministic accounting that participates in crash
 * snapshots and journal replay); this store holds the actual post-RoPE
 * key/value rows for those blocks so a later request can adopt them
 * instead of re-running prefill. The split matters for crash safety:
 * the rows are never persisted — a serving snapshot records only
 * which blocks are declared and filled, and recovery recomputes the
 * filled rows from the block chain's tokens. Chunk-layout invariance
 * (DESIGN.md §5f) guarantees the recomputed rows are bitwise
 * identical, and a missing payload costs a prefill, never a token.
 *
 * Lifecycle of a block: declare() when an admission matches its hash
 * (a block nobody reuses never holds rows), fill() once some session
 * has the rows resident, adoptInto() by any
 * number of later sessions, evict() when the allocator reclaims the
 * accounting block (wired via KvBlockAllocator::setEvictionHook).
 */

#ifndef SPECINFER_MODEL_PREFIX_STORE_H
#define SPECINFER_MODEL_PREFIX_STORE_H

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "model/kv_cache.h"

namespace specinfer {
namespace model {

/** Hash-keyed cache of filled KV rows for shared prefix blocks. */
class PrefixKvStore
{
  public:
    /**
     * @param n_layers Transformer layers per block payload.
     * @param kv_dim Per-token K (and V) width.
     * @param block_tokens Tokens per block (the allocator's blockTokens).
     */
    PrefixKvStore(size_t n_layers, size_t kv_dim, size_t block_tokens);

    size_t layers() const { return nLayers_; }
    size_t kvDim() const { return kvDim_; }
    size_t blockTokens() const { return blockTokens_; }

    /** Announce a block an admission matched. Idempotent. */
    void declare(uint64_t hash);

    bool contains(uint64_t hash) const
    {
        return blocks_.find(hash) != blocks_.end();
    }

    /** True once the block's rows have been captured. */
    bool filled(uint64_t hash) const;

    /**
     * Capture blockTokens() rows starting at cache slot first_row as
     * the payload for `hash`. No-op unless the block is declared and
     * not yet filled (first writer wins — all writers would produce
     * identical rows anyway).
     */
    void fill(uint64_t hash, const KvCache &cache, size_t first_row);

    /**
     * Append the first `rows` rows of the block into `cache`.
     * @return Rows adopted: `rows` on a warm hit, 0 if the block is
     *         absent or unfilled (caller falls back to prefill).
     */
    size_t adoptInto(uint64_t hash, size_t rows, KvCache *cache) const;

    /** Drop a block (allocator eviction hook). Unknown hash is a no-op. */
    void evict(uint64_t hash) { blocks_.erase(hash); }

    size_t size() const { return blocks_.size(); }
    size_t filledCount() const;

  private:
    struct Block {
        bool filled = false;
        /// Layer-major: layer * blockTokens * kvDim floats per plane.
        std::vector<float> keys;
        std::vector<float> values;
    };

    size_t nLayers_;
    size_t kvDim_;
    size_t blockTokens_;
    std::unordered_map<uint64_t, Block> blocks_;
};

} // namespace model
} // namespace specinfer

#endif // SPECINFER_MODEL_PREFIX_STORE_H
