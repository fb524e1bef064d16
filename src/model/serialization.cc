#include "model/serialization.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/logging.h"

namespace specinfer {
namespace model {

namespace {

constexpr char kMagic[4] = {'S', 'P', 'I', 'N'};
constexpr uint32_t kVersion = 2;

using io::readPod;
using io::writePod;

void
writeString(std::ostream &out, const std::string &s)
{
    writePod<uint64_t>(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string
readString(std::istream &in)
{
    uint64_t len = readPod<uint64_t>(in);
    SPECINFER_CHECK(len < (1u << 20), "implausible string length");
    std::string s(len, '\0');
    in.read(s.data(), static_cast<std::streamsize>(len));
    SPECINFER_CHECK(in.good(), "truncated model stream");
    return s;
}

void
writeTensor(std::ostream &out, const tensor::Tensor &t)
{
    writePod<uint64_t>(out, t.rows());
    writePod<uint64_t>(out, t.cols());
    out.write(reinterpret_cast<const char *>(t.data()),
              static_cast<std::streamsize>(t.size() * sizeof(float)));
}

tensor::Tensor
readTensor(std::istream &in)
{
    uint64_t rows = readPod<uint64_t>(in);
    uint64_t cols = readPod<uint64_t>(in);
    SPECINFER_CHECK(rows * cols < (1ull << 32),
                    "implausible tensor size");
    tensor::Tensor t(rows, cols);
    in.read(reinterpret_cast<char *>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
    SPECINFER_CHECK(in.good(), "truncated model stream");
    return t;
}

void
writeVector(std::ostream &out, const std::vector<float> &v)
{
    writePod<uint64_t>(out, v.size());
    out.write(reinterpret_cast<const char *>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(float)));
}

std::vector<float>
readVector(std::istream &in)
{
    uint64_t len = readPod<uint64_t>(in);
    SPECINFER_CHECK(len < (1u << 24), "implausible vector length");
    std::vector<float> v(len);
    in.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(len * sizeof(float)));
    SPECINFER_CHECK(in.good(), "truncated model stream");
    return v;
}

/**
 * QTensor format: u64 rows, u64 cols, rows f32 scales, rows*cols
 * int8. The int8 payload is serialized explicitly (not re-quantized
 * from the fp32 mirror on load): round-tripping the grid twice can
 * shift a row scale by 1 ulp, and the bit-identity contracts demand
 * the loaded model compute with exactly the saved integers.
 */
void
writeQTensor(std::ostream &out, const tensor::QTensor &q)
{
    writePod<uint64_t>(out, q.rows());
    writePod<uint64_t>(out, q.cols());
    out.write(reinterpret_cast<const char *>(q.scales()),
              static_cast<std::streamsize>(q.rows() * sizeof(float)));
    out.write(reinterpret_cast<const char *>(q.data()),
              static_cast<std::streamsize>(q.size()));
}

tensor::QTensor
readQTensor(std::istream &in)
{
    uint64_t rows = readPod<uint64_t>(in);
    uint64_t cols = readPod<uint64_t>(in);
    SPECINFER_CHECK(rows * cols < (1ull << 32),
                    "implausible quantized tensor size");
    tensor::QTensor q(rows, cols);
    in.read(reinterpret_cast<char *>(q.scales()),
            static_cast<std::streamsize>(rows * sizeof(float)));
    in.read(reinterpret_cast<char *>(q.data()),
            static_cast<std::streamsize>(q.size()));
    SPECINFER_CHECK(in.good(), "truncated model stream");
    return q;
}

} // namespace

void
saveModel(std::ostream &out, const ModelConfig &cfg,
          const ModelWeights &weights)
{
    out.write(kMagic, 4);
    writePod<uint32_t>(out, kVersion);
    writeString(out, cfg.name);
    writePod<uint64_t>(out, cfg.vocabSize);
    writePod<uint64_t>(out, cfg.dModel);
    writePod<uint64_t>(out, cfg.nLayers);
    writePod<uint64_t>(out, cfg.nHeads);
    writePod<uint64_t>(out, cfg.dFf);
    writePod<uint64_t>(out, cfg.maxSeqLen);
    writePod<float>(out, cfg.ropeTheta);
    writePod<float>(out, cfg.residualScale);
    writePod<float>(out, cfg.logitScale);
    writePod<uint64_t>(out, cfg.seed);
    writePod<int32_t>(out, cfg.eosToken);
    writePod<uint8_t>(out, static_cast<uint8_t>(cfg.precision));

    writeTensor(out, weights.embedding);
    writePod<uint64_t>(out, weights.layers.size());
    for (const LayerWeights &lw : weights.layers) {
        writeTensor(out, lw.wq);
        writeTensor(out, lw.wk);
        writeTensor(out, lw.wv);
        writeTensor(out, lw.wo);
        writeTensor(out, lw.wGate);
        writeTensor(out, lw.wUp);
        writeTensor(out, lw.wDown);
        writeVector(out, lw.attnNorm);
        writeVector(out, lw.ffnNorm);
    }
    writeVector(out, weights.finalNorm);
    writeTensor(out, weights.lmHead);
    if (cfg.precision == Precision::Int8) {
        writePod<uint64_t>(out, weights.qLayers.size());
        for (const QuantizedLayer &ql : weights.qLayers) {
            writeQTensor(out, ql.wq);
            writeQTensor(out, ql.wk);
            writeQTensor(out, ql.wv);
            writeQTensor(out, ql.wo);
            writeQTensor(out, ql.wGate);
            writeQTensor(out, ql.wUp);
            writeQTensor(out, ql.wDown);
        }
        writeQTensor(out, weights.qLmHead);
    }
    SPECINFER_CHECK(out.good(), "model write failed");
}

Transformer
loadModel(std::istream &in)
{
    char magic[4];
    in.read(magic, 4);
    SPECINFER_CHECK(in.good() &&
                    std::memcmp(magic, kMagic, 4) == 0,
                    "not a SpecInfer model stream");
    uint32_t version = readPod<uint32_t>(in);
    // Version 1 predates the precision field and quantized payload;
    // such streams are always fp32 and remain loadable.
    SPECINFER_CHECK(version == 1 || version == kVersion,
                    "unsupported model version " << version);

    ModelConfig cfg;
    cfg.name = readString(in);
    cfg.vocabSize = readPod<uint64_t>(in);
    cfg.dModel = readPod<uint64_t>(in);
    cfg.nLayers = readPod<uint64_t>(in);
    cfg.nHeads = readPod<uint64_t>(in);
    cfg.dFf = readPod<uint64_t>(in);
    cfg.maxSeqLen = readPod<uint64_t>(in);
    cfg.ropeTheta = readPod<float>(in);
    cfg.residualScale = readPod<float>(in);
    cfg.logitScale = readPod<float>(in);
    cfg.seed = readPod<uint64_t>(in);
    cfg.eosToken = readPod<int32_t>(in);
    if (version >= 2) {
        uint8_t p = readPod<uint8_t>(in);
        SPECINFER_CHECK(p <= 1, "bad precision byte " << unsigned(p));
        cfg.precision = static_cast<Precision>(p);
    }
    cfg.validate();

    auto weights = std::make_shared<ModelWeights>();
    weights->embedding = readTensor(in);
    uint64_t n_layers = readPod<uint64_t>(in);
    SPECINFER_CHECK(n_layers >= cfg.nLayers,
                    "stream holds fewer layers than the config uses");
    weights->layers.resize(n_layers);
    for (uint64_t i = 0; i < n_layers; ++i) {
        LayerWeights &lw = weights->layers[i];
        lw.wq = readTensor(in);
        lw.wk = readTensor(in);
        lw.wv = readTensor(in);
        lw.wo = readTensor(in);
        lw.wGate = readTensor(in);
        lw.wUp = readTensor(in);
        lw.wDown = readTensor(in);
        lw.attnNorm = readVector(in);
        lw.ffnNorm = readVector(in);
    }
    weights->finalNorm = readVector(in);
    weights->lmHead = readTensor(in);
    if (cfg.precision == Precision::Int8) {
        uint64_t n_qlayers = readPod<uint64_t>(in);
        SPECINFER_CHECK(n_qlayers >= cfg.nLayers,
                        "stream holds fewer quantized layers than "
                        "the config uses");
        weights->qLayers.resize(n_qlayers);
        for (uint64_t i = 0; i < n_qlayers; ++i) {
            QuantizedLayer &ql = weights->qLayers[i];
            ql.wq = readQTensor(in);
            ql.wk = readQTensor(in);
            ql.wv = readQTensor(in);
            ql.wo = readQTensor(in);
            ql.wGate = readQTensor(in);
            ql.wUp = readQTensor(in);
            ql.wDown = readQTensor(in);
        }
        weights->qLmHead = readQTensor(in);
    }
    return Transformer(cfg, std::move(weights));
}

void
saveModelFile(const std::string &path, const Transformer &model)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        SPECINFER_FATAL("cannot open '" << path << "' for writing");
    saveModel(out, model.config(), *model.weights());
}

Transformer
loadModelFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SPECINFER_FATAL("cannot open '" << path << "' for reading");
    return loadModel(in);
}

} // namespace model
} // namespace specinfer
