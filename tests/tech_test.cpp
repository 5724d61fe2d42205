#include <gtest/gtest.h>

#include "tech/generic180.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"

namespace snim::tech {
namespace {

TEST(DopingTest, HighOhmicUniform) {
    auto p = DopingProfile::high_ohmic(20.0, 250.0);
    EXPECT_DOUBLE_EQ(p.depth(), 250.0);
    EXPECT_FALSE(p.backside_grounded());
    // 20 ohm cm = 0.2 ohm m -> sigma = 5 S/m.
    EXPECT_NEAR(p.conductivity_at(10.0), 5.0, 1e-12);
    EXPECT_NEAR(p.conductivity_at(200.0), 5.0, 1e-12);
}

TEST(DopingTest, EpiLayered) {
    auto p = DopingProfile::epi(15.0, 7.0, 0.015, 250.0);
    EXPECT_TRUE(p.backside_grounded());
    EXPECT_NEAR(p.resistivity_at(3.0), 0.15, 1e-12);   // epi: 15 ohm cm
    EXPECT_NEAR(p.resistivity_at(50.0), 1.5e-4, 1e-12); // bulk: 0.015 ohm cm
}

TEST(DopingTest, RejectsBadLayers) {
    EXPECT_THROW(DopingProfile({{0.0, 20.0}}), Error);
    EXPECT_THROW(DopingProfile({{10.0, -1.0}}), Error);
    EXPECT_THROW(DopingProfile(std::vector<DopingLayer>{}), Error);
}

TEST(TechnologyTest, LayerLookup) {
    Technology t("test", DopingProfile::high_ohmic());
    Layer metal1;
    metal1.name = "metal1";
    metal1.kind = LayerKind::Routing;
    metal1.sheet_res = 0.08;
    t.add_layer(metal1);
    EXPECT_TRUE(t.has_layer("metal1"));
    EXPECT_FALSE(t.has_layer("metal9"));
    EXPECT_DOUBLE_EQ(t.layer("metal1").sheet_res, 0.08);
    EXPECT_THROW(t.layer("metal9"), Error);
    Layer duplicate;
    duplicate.name = "metal1";
    EXPECT_THROW(t.add_layer(duplicate), Error);
}

TEST(Generic180Test, HasFullStack) {
    auto t = generic180();
    EXPECT_EQ(t.name(), "generic180");
    for (const char* m : layers::kMetal) EXPECT_TRUE(t.has_layer(m));
    for (const char* v : layers::kVia) EXPECT_TRUE(t.has_layer(v));
    EXPECT_TRUE(t.has_layer(layers::kPoly));
    EXPECT_TRUE(t.has_layer(layers::kSubTap));
    EXPECT_TRUE(t.has_layer(layers::kNWell));
}

TEST(Generic180Test, RoutingLayersOrderedByHeight) {
    auto t = generic180();
    auto routing = t.routing_layers();
    ASSERT_GE(routing.size(), 7u); // poly + 6 metals
    for (size_t i = 1; i < routing.size(); ++i)
        EXPECT_GT(routing[i]->height, routing[i - 1]->height);
}

TEST(Generic180Test, TopMetalIsThickLowResistance) {
    auto t = generic180();
    const auto& m1 = t.layer(layers::kMetal[0]);
    const auto& m6 = t.layer(layers::kMetal[5]);
    EXPECT_LT(m6.sheet_res, m1.sheet_res);
    EXPECT_GT(m6.thickness, m1.thickness);
    // Cap to substrate decreases with height.
    EXPECT_LT(m6.cap_area, m1.cap_area);
}

TEST(Generic180Test, MosModels) {
    auto t = generic180();
    const auto& n = t.mos_model("nch");
    const auto& p = t.mos_model("pch");
    EXPECT_TRUE(n.is_nmos);
    EXPECT_FALSE(p.is_nmos);
    EXPECT_GT(n.kp, p.kp); // electron mobility advantage
    EXPECT_GT(n.gamma, 0.0);
    EXPECT_THROW(t.mos_model("nope"), Error);
}

TEST(Generic180Test, VaractorModel) {
    auto t = generic180();
    const auto& v = t.varactor_model("nvar");
    EXPECT_GT(v.cmax_per_area, 0);
    EXPECT_GT(v.cmin_ratio, 0);
    EXPECT_LT(v.cmin_ratio, 1.0);
    EXPECT_THROW(t.varactor_model("nope"), Error);
}

TEST(Generic180Test, SubstrateIsHighOhmic) {
    auto t = generic180();
    // 20 ohm cm, as the paper's wafer.
    EXPECT_NEAR(t.substrate().resistivity_at(50.0), 0.2, 1e-9);
    EXPECT_FALSE(t.substrate().backside_grounded());
}

} // namespace
} // namespace snim::tech
