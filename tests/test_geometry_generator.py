"""Synthetic scene generation: calibration and statistics."""

import pytest

from repro.config import ScreenConfig
from repro.geometry.generator import (
    SceneGenerator,
    SceneParameters,
    calibrate_extent_for_reuse,
)
from repro.workloads.suite import BENCHMARKS


@pytest.fixture(scope="module")
def screen() -> ScreenConfig:
    return ScreenConfig()  # paper screen: enough tiles for calibration


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneParameters(num_primitives=0, target_reuse=2.0)
        with pytest.raises(ValueError):
            SceneParameters(num_primitives=10, target_reuse=0.5)
        with pytest.raises(ValueError):
            SceneParameters(num_primitives=10, target_reuse=2.0,
                            mean_attributes=20)
        with pytest.raises(ValueError):
            SceneParameters(num_primitives=10, target_reuse=2.0,
                            coverage_fraction=0.01)


class TestCalibration:
    def test_extent_monotonic_in_reuse(self, screen):
        small = calibrate_extent_for_reuse(screen, 1.5, samples=80)
        large = calibrate_extent_for_reuse(screen, 6.0, samples=80)
        assert small < large

    def test_rejects_sub_unit_reuse(self, screen):
        with pytest.raises(ValueError):
            calibrate_extent_for_reuse(screen, 0.9)

    # Extents computed by binning each sample triangle with the scalar
    # ``tiles_overlapped_by``; the array path must reproduce every bit.
    SUITE_EXTENTS = {
        "CCS": "0x1.9f28d633bff0ep+5",
        "SoD": "0x1.d7820ed31e858p+5",
        "TRu": "0x1.663a25b6b9070p+4",
        "SWa": "0x1.fe2b9fd02a0efp+4",
        "CRa": "0x1.cc40f656ffd1cp+3",
        "RoK": "0x1.e6a542fc7e452p+4",
        "DDS": "0x1.98f6312e6c79cp+2",
        "Snp": "0x1.8030cd667c124p+2",
        "Mze": "0x1.20d60f1ebd311p+4",
        "GTr": "0x1.ccf6c1aa0f8d2p+5",
    }

    @pytest.mark.parametrize("alias", sorted(SUITE_EXTENTS))
    def test_suite_extents_are_bit_identical(self, screen, alias):
        spec = BENCHMARKS[alias]
        extent = calibrate_extent_for_reuse(
            screen, spec.avg_reuse, seed=spec.seed ^ 0x5EED,
            size_spread=0.35)
        assert extent == float.fromhex(self.SUITE_EXTENTS[alias])

    @pytest.mark.parametrize(
        "size,target,seed,samples,spread,expected",
        [
            ((1960, 768, 32), 2.5, 7, 80, 0.0, "0x1.4d71f7c4f7432p+4"),
            ((1960, 768, 32), 1.0, 1234, 160, 0.0, "0x1.00003f8000000p+0"),
            ((1960, 768, 32), 4.2, 99, 40, 0.6, "0x1.3921338aa6e8ap+5"),
            # Screen sides that are not tile multiples.
            ((100, 70, 16), 12.0, 3, 50, 0.0, "0x1.051521d9a92e8p+6"),
            # Doubling branch: the first ``hi`` under-covers.  Once and
            # twice on a one-tile strip; on a 28-tile screen the target
            # is unreachable and the doubling stops at its bound.
            ((1024, 32, 32), 9.0, 5, 30, 0.35, "0x1.d09e3bd780000p+8"),
            ((1024, 32, 32), 20.0, 5, 30, 0.35, "0x1.5fe3cdd7e8816p+10"),
            ((200, 100, 32), 40.0, 5, 60, 0.35, "0x1.94c582e362f36p+10"),
        ])
    def test_extents_are_bit_identical(self, size, target, seed, samples,
                                       spread, expected):
        extent = calibrate_extent_for_reuse(
            ScreenConfig(*size), target, seed=seed, samples=samples,
            size_spread=spread)
        assert extent == float.fromhex(expected)


class TestGeneration:
    @pytest.mark.parametrize("target", [1.5, 3.6, 6.9])
    def test_measured_reuse_near_target(self, screen, target):
        params = SceneParameters(num_primitives=400, target_reuse=target,
                                 seed=3)
        scene = SceneGenerator(screen, params).generate()
        assert scene.average_reuse() == pytest.approx(target, rel=0.15)

    def test_primitive_count_and_ids(self, screen):
        params = SceneParameters(num_primitives=100, target_reuse=2.0, seed=1)
        scene = SceneGenerator(screen, params).generate()
        assert len(scene) == 100
        assert [p.primitive_id for p in scene.primitives] == list(range(100))

    def test_deterministic_for_same_seed(self, screen):
        params = SceneParameters(num_primitives=50, target_reuse=2.0, seed=9)
        a = SceneGenerator(screen, params).generate()
        b = SceneGenerator(screen, params).generate()
        assert [p.v0 for p in a.primitives] == [p.v0 for p in b.primitives]

    def test_frames_differ_but_share_statistics(self, screen):
        params = SceneParameters(num_primitives=300, target_reuse=3.0, seed=5)
        generator = SceneGenerator(screen, params)
        frame0 = generator.generate(0)
        frame1 = generator.generate(1)
        assert [p.v0 for p in frame0.primitives] != \
            [p.v0 for p in frame1.primitives]
        assert frame0.average_reuse() == \
            pytest.approx(frame1.average_reuse(), rel=0.25)

    def test_mean_attributes_honored(self, screen):
        params = SceneParameters(num_primitives=400, target_reuse=2.0,
                                 mean_attributes=4.0, seed=2)
        scene = SceneGenerator(screen, params).generate()
        assert scene.average_attributes() == pytest.approx(4.0, abs=0.4)

    def test_coverage_fraction_concentrates_geometry(self, screen):
        def occupied_tiles(coverage):
            params = SceneParameters(num_primitives=500, target_reuse=2.0,
                                     coverage_fraction=coverage, seed=4)
            scene = SceneGenerator(screen, params).generate()
            return sum(1 for lst in scene.tile_lists() if lst)

        assert occupied_tiles(0.3) < occupied_tiles(1.0)

    def test_all_primitives_on_screen(self, screen):
        params = SceneParameters(num_primitives=200, target_reuse=1.5, seed=7)
        scene = SceneGenerator(screen, params).generate()
        visible = sum(1 for tiles in scene.coverage() if tiles)
        assert visible == len(scene)  # centers are clamped inside
