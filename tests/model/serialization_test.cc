#include "model/serialization.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "model/model_factory.h"
#include "test_models.h"

namespace specinfer {
namespace model {
namespace {

using specinfer::testing::tinyLlm;

TEST(SerializationTest, RoundTripPreservesLogitsBitwise)
{
    Transformer original = tinyLlm(4242);
    std::stringstream buffer;
    saveModel(buffer, original.config(), *original.weights());
    Transformer restored = loadModel(buffer);

    EXPECT_EQ(restored.config().name, original.config().name);
    EXPECT_EQ(restored.config().vocabSize,
              original.config().vocabSize);
    EXPECT_EQ(restored.config().seed, original.config().seed);

    KvCache ca = original.makeCache();
    KvCache cb = restored.makeCache();
    DecodeChunk chunk = DecodeChunk::sequence({3, 14, 15, 9});
    tensor::Tensor la = original.forward(chunk, ca);
    tensor::Tensor lb = restored.forward(chunk, cb);
    ASSERT_EQ(la.size(), lb.size());
    for (size_t i = 0; i < la.size(); ++i)
        ASSERT_EQ(la.data()[i], lb.data()[i]);
}

TEST(SerializationTest, EarlyExitSsmSurvivesRoundTrip)
{
    // Saving the full model and loading with a shallower config is
    // how a deployed SSM would ship alongside its LLM; the stream
    // keeps all layers so both can be restored.
    Transformer llm = tinyLlm(77);
    std::stringstream buffer;
    saveModel(buffer, llm.config(), *llm.weights());
    Transformer restored = loadModel(buffer);
    Transformer ssm_a = makeEarlyExitSsm(llm, 2);
    Transformer ssm_b = makeEarlyExitSsm(restored, 2);
    KvCache ca = ssm_a.makeCache();
    KvCache cb = ssm_b.makeCache();
    tensor::Tensor la =
        ssm_a.forward(DecodeChunk::sequence({1, 2, 3}), ca);
    tensor::Tensor lb =
        ssm_b.forward(DecodeChunk::sequence({1, 2, 3}), cb);
    for (size_t i = 0; i < la.size(); ++i)
        ASSERT_EQ(la.data()[i], lb.data()[i]);
}

TEST(SerializationTest, Int8SsmRoundTripPreservesLogitsBitwise)
{
    // The int8 payload (quants + scales) is serialized explicitly,
    // not re-derived from the fp32 mirror, so a restored int8 model
    // must produce bit-identical logits through the integer kernels.
    Transformer llm = tinyLlm(909);
    Transformer int8 = makeInt8Ssm(llm, 2);
    std::stringstream buffer;
    saveModel(buffer, int8.config(), *int8.weights());
    Transformer restored = loadModel(buffer);

    EXPECT_EQ(restored.config().precision, Precision::Int8);
    ASSERT_EQ(restored.weights()->qLayers.size(),
              int8.weights()->qLayers.size());
    const tensor::QTensor &qa = int8.weights()->qLayers[0].wq;
    const tensor::QTensor &qb = restored.weights()->qLayers[0].wq;
    ASSERT_EQ(qa.size(), qb.size());
    EXPECT_EQ(std::memcmp(qa.data(), qb.data(), qa.size()), 0);
    EXPECT_EQ(std::memcmp(qa.scales(), qb.scales(),
                          qa.rows() * sizeof(float)),
              0);

    KvCache ca = int8.makeCache();
    KvCache cb = restored.makeCache();
    DecodeChunk chunk = DecodeChunk::sequence({3, 14, 15, 9});
    tensor::Tensor la = int8.forward(chunk, ca);
    tensor::Tensor lb = restored.forward(chunk, cb);
    ASSERT_EQ(la.size(), lb.size());
    for (size_t i = 0; i < la.size(); ++i)
        ASSERT_EQ(la.data()[i], lb.data()[i]);
}

TEST(SerializationTest, PodVectorSpanningChunksRoundTrips)
{
    // 300k ints cross the reader's 1 MiB growth step.
    std::vector<int> v(300000);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<int>(i * 2654435761u);
    std::stringstream buf;
    io::writePodVector<int>(buf, v);
    EXPECT_EQ(io::readPodVector<int>(buf), v);
}

TEST(SerializationDeathTest, HugePodVectorLengthOnShortStreamIsTruncated)
{
    // A corrupt length claiming 2^31 ints (8 GiB) on a 16-byte
    // stream fails as truncated after one bounded chunk instead of
    // allocating the claimed size first.
    std::stringstream buf;
    io::writePod<uint64_t>(buf, uint64_t{1} << 31);
    io::writePod<uint64_t>(buf, 0);
    ASSERT_EQ(buf.str().size(), 16u);
    EXPECT_DEATH(io::readPodVector<int>(buf),
                 "truncated serialized stream");
}

TEST(SerializationTest, FileRoundTrip)
{
    Transformer original = tinyLlm(555);
    std::string path = ::testing::TempDir() + "/specinfer_model.bin";
    saveModelFile(path, original);
    Transformer restored = loadModelFile(path);
    EXPECT_EQ(restored.config().nLayers, original.config().nLayers);
    std::remove(path.c_str());
}

TEST(SerializationDeathTest, RejectsGarbage)
{
    std::stringstream buffer;
    buffer << "definitely not a model";
    EXPECT_DEATH(loadModel(buffer), "not a SpecInfer model");
}

TEST(SerializationDeathTest, RejectsTruncation)
{
    Transformer original = tinyLlm();
    std::stringstream buffer;
    saveModel(buffer, original.config(), *original.weights());
    std::string data = buffer.str();
    std::stringstream cut;
    cut << data.substr(0, data.size() / 2);
    EXPECT_DEATH(loadModel(cut), "truncated");
}

TEST(SerializationDeathTest, RejectsWrongVersion)
{
    Transformer original = tinyLlm();
    std::stringstream buffer;
    saveModel(buffer, original.config(), *original.weights());
    std::string data = buffer.str();
    data[4] = 99; // clobber the version field
    std::stringstream bad;
    bad << data;
    EXPECT_DEATH(loadModel(bad), "version");
}

} // namespace
} // namespace model
} // namespace specinfer
