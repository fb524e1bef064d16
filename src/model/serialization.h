/**
 * @file
 * Binary serialization of model configurations and weights, so
 * calibrated model pairs can be stored and reloaded instead of
 * regenerated (and, in a deployment, so real checkpoints could be
 * imported), plus the POD stream helpers the serving snapshot and
 * journal are written with.
 *
 * Model format (little-endian, version 1):
 *   magic "SPIN", u32 version,
 *   config fields (u64/f32 in declaration order, name length-prefixed),
 *   embedding, per-layer tensors, final norm, lm head — each tensor
 *   as u64 rows, u64 cols, rows*cols f32.
 */

#ifndef SPECINFER_MODEL_SERIALIZATION_H
#define SPECINFER_MODEL_SERIALIZATION_H

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "model/config.h"
#include "model/transformer.h"
#include "model/weights.h"
#include "util/logging.h"

namespace specinfer {
namespace model {

/**
 * Low-level little-endian stream helpers shared by the model,
 * session, and serving-snapshot serializers. Readers abort (panic)
 * on truncated input — snapshot streams are written atomically, so
 * truncation there is corruption, unlike the journal whose reader
 * is truncation-tolerant by design (see runtime/journal.h).
 */
namespace io {

template <typename T>
inline void
writePod(std::ostream &out, T value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
inline T
readPod(std::istream &in)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    SPECINFER_CHECK(in.good(), "truncated serialized stream");
    return value;
}

/** Length-prefixed vector of POD elements (tokens, log-probs, ...). */
template <typename T>
inline void
writePodVector(std::ostream &out, const std::vector<T> &v)
{
    writePod<uint64_t>(out, v.size());
    out.write(reinterpret_cast<const char *>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
inline std::vector<T>
readPodVector(std::istream &in)
{
    uint64_t len = readPod<uint64_t>(in);
    SPECINFER_CHECK(len < (1ull << 32),
                    "implausible serialized vector length");
    // Grow as the bytes arrive, 1 MiB at a time: a corrupt length on
    // a short stream fails as truncated after one chunk instead of
    // allocating the claimed size up front.
    constexpr uint64_t kChunk =
        ((uint64_t{1} << 20) + sizeof(T) - 1) / sizeof(T);
    std::vector<T> v;
    while (v.size() < len) {
        const size_t at = v.size();
        const size_t n =
            static_cast<size_t>(std::min<uint64_t>(len - at, kChunk));
        v.resize(at + n);
        in.read(reinterpret_cast<char *>(v.data() + at),
                static_cast<std::streamsize>(n * sizeof(T)));
        SPECINFER_CHECK(in.good(), "truncated serialized stream");
    }
    return v;
}

} // namespace io

/** Serialize config + weights to a stream. */
void saveModel(std::ostream &out, const ModelConfig &cfg,
               const ModelWeights &weights);

/** Load a model previously written by saveModel().
 *  Aborts (panic) on magic/version mismatch or truncated data. */
Transformer loadModel(std::istream &in);

/** Convenience: file-path variants. Fatal on I/O errors. */
void saveModelFile(const std::string &path, const Transformer &model);
Transformer loadModelFile(const std::string &path);

} // namespace model
} // namespace specinfer

#endif // SPECINFER_MODEL_SERIALIZATION_H
