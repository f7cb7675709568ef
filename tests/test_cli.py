from __future__ import annotations

import hashlib
import json
import os
import tracemalloc

import pytest

from coarselab.cli import main


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestSpaceCommand:
    def test_z_window(self, tmp_path, capsys):
        rc = main(["space", "--model", "z", "--range", "100",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "points: 201" in out
        manifest = json.loads(read(tmp_path / "space.json"))
        assert manifest["model"] == "z"
        assert (tmp_path / "points.csv").exists()
        assert (tmp_path / "space.manifest.json").exists()

    def test_t3_count(self, tmp_path, capsys):
        rc = main(["space", "--model", "t3", "--radius", "10",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "points: 3070" in capsys.readouterr().out

    def test_h2_summary(self, tmp_path, capsys):
        rc = main(["space", "--model", "h2", "--ball", "8", "--sep", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degree_bound:" in out
        assert "degree_histogram:" in out

    def test_schema_error_exit_2(self, tmp_path):
        rc = main(["verify", str(tmp_path / "missing.json"),
                   "--checks", "coverage", "--out", str(tmp_path)])
        assert rc == 2

    def test_unsupported_hd_dimension_exit_2(self, tmp_path, capsys):
        rc = main(["space", "--model", "hd", "--d", "4", "--ball", "3",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "d=4" in err and "Traceback" not in err
        assert not (tmp_path / "points.csv").exists()

    def test_size_cap_exit_3(self, tmp_path):
        rc = main(["space", "--model", "comb", "--d", "4", "--extent", "40",
                   "--out", str(tmp_path)])
        assert rc == 3

    def test_halfspace_size_cap_exit_3(self, tmp_path, capsys):
        for argv in (["--model", "h2", "--ball", "1000"],
                     ["--model", "hd", "--window-kind", "birad", "--ball", "800"]):
            rc = main(["space", *argv, "--out", str(tmp_path)])
            assert rc == 3
            err = capsys.readouterr().err
            assert "cap" in err and "Traceback" not in err
            assert not (tmp_path / "points.csv").exists()


    def test_z_t3_and_walk_size_caps_exit_3(self, tmp_path, capsys):
        # windows of 4e9 integers, 3*2^40 words and 1.3e13 walk steps
        for argv in (["space", "--model", "z", "--range", "2000000000"],
                     ["space", "--model", "t3", "--radius", "40"],
                     ["build", "walk", "--n-max", "40"]):
            tracemalloc.start()
            try:
                rc = main([*argv, "--out", str(tmp_path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 3, argv
            err = capsys.readouterr().err
            assert "cap" in err and "Traceback" not in err
            assert peak < 2**23, (argv, peak)
            assert not os.listdir(tmp_path)


# sha256 of every file these commands write, recorded before the nets held
# CSR adjacency and point views; the artifacts must not change
ARTIFACT_HASHES = {
    ("space", "--model", "z"): {
        "points.csv": "63a9fa22e015b872e0d155d19619857852dac74b8572cebe61668121e5128095",
        "edges.csv": "3e7c77fec0f78ec3b78fee81a705c2412cd9fbb7818e660c3ffbb6c26c71135b",
        "space.json": "62f9b610a9fb2d5c5c79fb9169b07ad67a5674b1806b50d57c82f8a2e302d8c8",
        "space.manifest.json": "f57cc7b74e1ed7add2b7b87021df4e089e0d8db3194d3e11fb920fa59e771eee"},
    ("space", "--model", "t3"): {
        "points.csv": "ae93058bc109238276f5ea37b820020418722cc79f2a66f57607ef13d559e01c",
        "edges.csv": "aa87e8557e805d28dad0587fdcdef71ccb7130d479cdf0f3e65c515148aa822a",
        "space.json": "227f975f3475136f1952f0ca2c6233733074a5592e558742b55e5e6813aa2ab4",
        "space.manifest.json": "95d0c7113fc6eac863f25c26abb22058475a285ec8808afb3c82b1970dd3d7ea"},
    ("space", "--model", "h2"): {
        "points.csv": "f67afb08aa00adde7c0936e5acd92eb497af572b38bbf96b7e032415ad124610",
        "edges.csv": "70cbe37cf7d9a2a59f22f0d055f4498efe7746e4fa7e4c783d093ee81fe9bbed",
        "space.json": "7d742d331448e7151f99dea8572302f032eb1cfdc3e1b61a1ba218347db9c363",
        "space.manifest.json": "ffaa8cd7e564e238ac5b467b0d362f50d3bdaa7c3eb712c727529562da2fbc08"},
    ("space", "--model", "hd", "--d", "3"): {
        "points.csv": "4d6f3f583a9f55afcfd72cd0da05ca4ce4a175eda73c529336487424974e361e",
        "edges.csv": "9b71ea8e3a56d7a1f978810c04bea844257a98b26c6e788c51cf40322cfdffba",
        "space.json": "04383ae567d6ce85411eba9f353431aef56342d90fc5d3753bd828e942c35cfc",
        "space.manifest.json": "43de476b56301cd25b1e5be30943f07465f656b1a382385c77df9b9dbb960ffe"},
    ("build", "walk", "--n-max", "6"): {
        "walk.json": "0f3d8216d7497dc8e93626705d7403e3434f2bb404e6578ef99483872eb2632b",
        "verification.json": "6a5af0cf8edbfec5a511fde779713d86b5226fe9f792b48f3dea8378ad230aaa",
        "build-walk.manifest.json": "3536a611f03ab0f46b2bf7a593a7e37df3c432c1fd111828611ff70b6a43c5f1"},
    ("build", "tiling", "--r", "1", "--ball", "6"): {
        "tiling.json": "81d3ccc1291d3ed53c552bf5f9532c97a6fa49668a1604daff0aff26e2817eb5",
        "decomposition.json": "31ab034a258473474d5e6d1ae93f3dcbc71be525988a385ac027631160fe9e81",
        "verification.json": "29e9372d176874a3fc0b26cda22bf38c7c4e919b7ebf55fcffebeeffb7cfbb69",
        "build-tiling.manifest.json": "336ef0260a6b5791183e719ba2e2c6024d29103fa57d18d6fc0a6150adf50a2d"},
    # recorded before covers held their pieces as CSR
    ("build", "bradyfarb", "--d", "3", "--ball", "3.5", "--r", "1"): {
        "hd_cover.json": "36b22f77680d8364eac4a260372a7d8e5c2bf1cbed24875e406301f26a7ffbd6",
        "verification.json": "165b3d3a2dcb67f626c922877b6c5b19979135742211db674775c1f2f17b0085",
        "build-bradyfarb.manifest.json": "020d03050d7403cfe8b49e5fb1cf11877d47b86cb36b758279ce2630977eed88"},
    ("build", "nerve", "--cover", "TILING/decomposition.json"): {
        "nerve.json": "152a3bd8567db250ae67200f05a8302e7e27ca1898eb195043cd39f38314dce3",
        "verification.json": "9100bd89b5be606a7382fab3c8ed6f01b1b343b6a647827039bec48d9ab32beb"},
    ("analyze", "distortion", "--map", "WALK/walk.json"): {
        "distortion.json": "ca1152d1bce85a86567d9493793ade2da68248ffe21493aefad9792defcb123f",
        "distortion.csv": "5d1c69061b0ef70353cc26b35a9b0c934024037eb81409f6c6b1c04e9331cc5e"},
}
# the commands that write the inputs the commands above name by a prefix;
# a manifest naming such an input holds its path, so it is not pinned
INPUTS = {"TILING": ("build", "tiling", "--r", "1", "--ball", "6"),
          "WALK": ("build", "walk", "--n-max", "6")}


@pytest.mark.parametrize("argv", list(ARTIFACT_HASHES), ids=" ".join)
def test_artifacts_byte_identical(argv, tmp_path):
    args = []
    for arg in argv:
        prefix = arg.partition("/")[0]
        if prefix in INPUTS:
            assert main([*INPUTS[prefix], "--out", str(tmp_path / prefix)]) == 0
            arg = str(tmp_path / arg)
        args.append(arg)
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in os.listdir(out)}
    pins = ARTIFACT_HASHES[argv]
    unpinned = set(got) - set(pins)
    assert unpinned == (set() if args == list(argv) else
                        {f"{argv[0]}-{argv[1]}.manifest.json"})
    assert {name: got[name] for name in pins} == pins


class TestBuildCommand:
    def test_walk_build_and_verify(self, tmp_path, capsys):
        rc = main(["build", "walk", "--n-max", "4", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "check fibers<=3: pass" in out
        assert "check consecutive-adjacent: pass" in out
        rc = main(["verify", str(tmp_path / "walk.json"),
                   "--checks", "fibers:max=3,adjacent",
                   "--out", str(tmp_path / "v")])
        assert rc == 0

    def test_walk_fiber_check_fails_at_two(self, tmp_path):
        main(["build", "walk", "--n-max", "4", "--out", str(tmp_path)])
        rc = main(["verify", str(tmp_path / "walk.json"),
                   "--checks", "fibers:max=2", "--out", str(tmp_path / "v")])
        assert rc == 4

    def test_tiling_build(self, tmp_path, capsys):
        rc = main(["build", "tiling", "--r", "1", "--ball", "5",
                   "--sep", "0.8", "--out", str(tmp_path)])
        assert rc == 0
        assert "check same-colour-disjoint: pass" in capsys.readouterr().out
        dec = json.loads(read(tmp_path / "decomposition.json"))
        assert dec["d"] == 1
        rc = main(["verify", str(tmp_path / "decomposition.json"),
                   "--checks", "disjointness,coverage,multiplicity:R=0:max=2",
                   "--out", str(tmp_path / "v")])
        assert rc == 0
        report = json.loads(read(tmp_path / "v" / "verification.json"))
        assert report["all_pass"]
        assert len(report["checks"]) == 3

    def test_tiling_build_on_a_small_ball(self, tmp_path):
        # no descended copy meets a ball of radius 2: the base tiles only
        rc = main(["build", "tiling", "--r", "1", "--ball", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert len(json.loads(read(tmp_path / "tiling.json"))["tiles"]) == 5

    def test_comb_build(self, tmp_path):
        rc = main(["build", "comb", "--d", "2", "--extent", "50",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = read(tmp_path / "points.csv").strip().splitlines()
        assert len(lines) - 1 == 101 + 101 * 50

    def test_product_build(self, tmp_path, capsys):
        main(["space", "--model", "z", "--range", "6",
              "--out", str(tmp_path / "f1")])
        main(["space", "--model", "z", "--range", "6",
              "--out", str(tmp_path / "f2")])
        rc = main(["build", "product",
                   "--factor", str(tmp_path / "f1" / "space.json"),
                   "--factor", str(tmp_path / "f2" / "space.json"),
                   "--l1-radius", "5", "--out", str(tmp_path / "p")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "product points: 61" in out  # |{(a,b): |a|+|b| <= 5}|
        manifest = json.loads(read(tmp_path / "p" / "space.json"))
        # the manifest regenerates the same space
        from coarselab import artifacts

        prod = artifacts.space_from_manifest(manifest)
        assert prod.n == 61

    def test_nerve_build(self, tmp_path, capsys):
        main(["build", "tiling", "--r", "1", "--ball", "5", "--sep", "0.8",
              "--out", str(tmp_path)])
        rc = main(["build", "nerve",
                   "--cover", str(tmp_path / "decomposition.json"),
                   "--out", str(tmp_path / "n")])
        assert rc == 0
        assert "check barycentric-sums-1: pass" in capsys.readouterr().out
        nerve = json.loads(read(tmp_path / "n" / "nerve.json"))
        assert nerve["dimension"] == 0  # a partition has singleton supports
        assert nerve["lipschitz"] >= 0.0

    def test_nerve_of_an_edgeless_window(self, tmp_path, capsys):
        # every singleton holds a whole component of the edgeless net
        from coarselab import artifacts, covers

        manifest = artifacts.space_manifest("t3", {"radius": 2},
                                            edge_threshold=0.5)
        space = artifacts.space_from_manifest(manifest)
        cover = covers.Cover(space, [[i] for i in range(space.n)])
        (tmp_path / "cover.json").write_text(artifacts.canonical_json(
            artifacts.cover_to_dict(cover, {"manifest": manifest})))
        rc = main(["build", "nerve", "--cover", str(tmp_path / "cover.json"),
                   "--out", str(tmp_path / "n")])
        assert rc == 0
        assert "check barycentric-sums-1: pass" in capsys.readouterr().out
        nerve = json.loads(read(tmp_path / "n" / "nerve.json"))
        assert nerve["dimension"] == 0 and nerve["lipschitz"] == 0.0

    def test_cover_point_outside_the_space_exit_2(self, tmp_path, capsys):
        main(["build", "tiling", "--ball", "4", "--out", str(tmp_path)])
        dec = json.loads(read(tmp_path / "decomposition.json"))
        dec["pieces"][1]["points"].append(1000000)
        for rec in dec["pieces"]:
            del rec["colour"]
        (tmp_path / "bad.json").write_text(json.dumps(dec))
        capsys.readouterr()
        rc = main(["build", "nerve", "--cover", str(tmp_path / "bad.json"),
                   "--out", str(tmp_path / "n")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "piece 1 holds point 1000000" in err and "Traceback" not in err

    def test_coverage_minimum_names_low_points(self, tmp_path):
        main(["build", "tiling", "--r", "1", "--ball", "4", "--out", str(tmp_path)])
        for need, rc, witness in ((1, 0, None), (2, 4, [0, 1, 2])):
            assert main(["verify", str(tmp_path / "decomposition.json"),
                         "--checks", f"coverage:min={need}",
                         "--out", str(tmp_path / f"v{need}")]) == rc
            report = json.loads(read(tmp_path / f"v{need}" / "verification.json"))
            assert report["checks"][0]["witness"] == witness

    def test_unknown_check_exit_2(self, tmp_path):
        main(["build", "walk", "--n-max", "3", "--out", str(tmp_path)])
        rc = main(["verify", str(tmp_path / "walk.json"),
                   "--checks", "nonsense", "--out", str(tmp_path / "v")])
        assert rc == 2


    def test_non_numeric_check_parameter_exit_2(self, tmp_path, capsys):
        main(["build", "walk", "--n-max", "3", "--out", str(tmp_path)])
        capsys.readouterr()
        rc = main(["verify", str(tmp_path / "walk.json"),
                   "--checks", "fibers:max=abc", "--out", str(tmp_path / "v")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "max" in err and "abc" in err
        assert not (tmp_path / "v").exists()

    def test_check_on_wrong_artifact_kind_exit_2(self, tmp_path):
        main(["build", "walk", "--n-max", "3", "--out", str(tmp_path)])
        rc = main(["verify", str(tmp_path / "walk.json"),
                   "--checks", "coverage", "--out", str(tmp_path / "v")])
        assert rc == 2

    def test_nerve_without_cover_exit_2(self, tmp_path):
        rc = main(["build", "nerve", "--out", str(tmp_path)])
        assert rc == 2

    def test_product_without_factor_exit_2(self, tmp_path, capsys):
        rc = main(["build", "product", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--factor" in err and "Traceback" not in err

    def test_empty_product_window_exit_2(self, tmp_path, capsys):
        main(["space", "--model", "z", "--range", "6",
              "--out", str(tmp_path / "net")])
        capsys.readouterr()
        factor = str(tmp_path / "net" / "space.json")
        rc = main(["build", "product", "--factor", factor, "--factor", factor,
                   "--l1-radius", "-1", "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "window produced no points" in err and "l1_ball" in err
        assert "SpaceGraph(" not in err and "Traceback" not in err

    def test_negative_multiplicity_radius_exit_2(self, tmp_path, capsys):
        main(["build", "tiling", "--r", "1", "--ball", "4", "--sep", "1.0",
              "--out", str(tmp_path)])
        capsys.readouterr()
        rc = main(["verify", str(tmp_path / "decomposition.json"),
                   "--checks", "multiplicity:R=-1", "--out", str(tmp_path / "v")])
        assert rc == 2
        assert "R must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()


# manifests the space builders cannot read, each with the field it names
_BASE = {"version": 1, "sep": 1.0, "edge_threshold": None}
_Z = {**_BASE, "model": "z", "window": {"lo": -3, "hi": 3}}
BAD_MANIFESTS = {
    "window-not-object": ({**_Z, "window": "ab"}, "'window'"),
    "product-no-factors": ({**_BASE, "model": "product",
                            "window": {"kind": "full"}}, "'factors'"),
    "l1-no-radius": ({**_BASE, "model": "product", "factors": [_Z, _Z],
                      "window": {"kind": "l1_ball", "centers": [0, 0]}},
                     "'radius'"),
    "walk-no-n-max": ({**_BASE, "model": "walk_target", "window": {}}, "'n_max'"),
    "comb-no-extent": ({**_BASE, "model": "comb", "window": {"d": 2}},
                       "'extent'"),
    "hd-no-d": ({**_BASE, "model": "hd",
                 "window": {"kind": "ball", "radius": 2.0}}, "'d'"),
    # a kind other than ball or birad built a birad window, whose margins
    # were then all infinite, so no growth radius was flagged truncated
    "hd-kind": ({**_BASE, "model": "hd",
                 "window": {"kind": "bal", "radius": 2.0, "d": 3}}, "'bal'"),
    "h2-radius": ({**_BASE, "model": "h2",
                   "window": {"kind": "ball", "radius": "x"}}, "'radius'"),
    "t3-radius": ({**_BASE, "model": "t3", "window": {"radius": "x"}},
                  "'radius'"),
    "z-lo": ({**_Z, "window": {"lo": "a", "hi": 3}}, "'lo'"),
    "sep-string": ({**_Z, "sep": "x"}, "'sep'"),
    "sep-null": ({**_Z, "sep": None}, "'sep'"),
    "z-threshold": ({**_Z, "edge_threshold": "a"}, "'edge_threshold'"),
}


def _error_exit(err: str) -> bool:
    """An ``error:`` line on stderr, and no traceback."""
    return "Traceback" not in err and any(
        line.startswith("error:") for line in err.splitlines())


class TestMalformedInputs:
    @pytest.mark.parametrize("name", list(BAD_MANIFESTS))
    def test_space_manifest_exit_2(self, name, tmp_path, capsys):
        manifest, field = BAD_MANIFESTS[name]
        (tmp_path / "space.json").write_text(json.dumps(manifest))
        rc = main(["analyze", "growth", "--space", str(tmp_path / "space.json"),
                   "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert rc == 2 and _error_exit(err) and field in err

    @pytest.mark.parametrize("change", [
        {"r": "x"}, {"r": None}, {"d": "x"}, {"d": 2.5}, {"colour": 1.5},
        {"colour": "1"}, {"colour": True},
    ], ids=str)
    def test_decomposition_exit_2(self, change, tmp_path, capsys):
        main(["build", "tiling", "--ball", "4", "--out", str(tmp_path)])
        dec = json.loads(read(tmp_path / "decomposition.json"))
        if "colour" in change:
            dec["pieces"][0]["colour"] = change["colour"]
        else:
            dec.update(change)
        (tmp_path / "bad.json").write_text(json.dumps(dec))
        capsys.readouterr()
        rc = main(["verify", str(tmp_path / "bad.json"),
                   "--checks", "disjointness", "--out", str(tmp_path / "v")])
        assert rc == 2 and _error_exit(capsys.readouterr().err)

    @pytest.mark.parametrize("case", [
        "three-entries", "skip-and-repeat", "negative-source", "string-target",
        "float-target", "float-source", "not-a-list", "provenance",
    ])
    def test_map_exit_2(self, case, tmp_path, capsys):
        main(["build", "walk", "--n-max", "3", "--out", str(tmp_path)])
        walk = json.loads(read(tmp_path / "walk.json"))
        pairs = walk["pairs"]
        if case == "three-entries":
            pairs[1] = [1, 2, 2]
        elif case == "skip-and-repeat":
            # source 5 missing and source 0 twice: once, 5 mapped to 0
            pairs[5] = [0, pairs[0][1]]
        elif case == "negative-source":
            # once, -1 overwrote the last point's target
            pairs[4] = [-1, 4]
        elif case == "string-target":
            pairs[3] = [3, "3"]
        elif case == "float-target":
            pairs[3] = [3, 3.0]
        elif case == "float-source":
            pairs[3] = [3.0, pairs[3][1]]
        elif case == "provenance":
            # once, analyze distortion ended in a TypeError on this
            walk["provenance"] = 5
        else:
            walk["pairs"] = 7
        (tmp_path / "bad.json").write_text(json.dumps(walk))
        capsys.readouterr()
        rc = main(["verify", str(tmp_path / "bad.json"), "--checks", "fibers",
                   "--out", str(tmp_path / "v")])
        assert rc == 2 and _error_exit(capsys.readouterr().err)

    def test_written_files_load_unchanged(self, tmp_path):
        # pairs in any order still load, as long as each source is there once
        main(["build", "walk", "--n-max", "3", "--out", str(tmp_path)])
        walk = json.loads(read(tmp_path / "walk.json"))
        walk["pairs"].reverse()
        (tmp_path / "reversed.json").write_text(json.dumps(walk))
        for name in ("walk.json", "reversed.json"):
            assert main(["verify", str(tmp_path / name), "--checks",
                         "fibers:max=3,adjacent", "--out", str(tmp_path / "v")]) == 0
        main(["build", "tiling", "--ball", "4", "--out", str(tmp_path / "t")])
        assert main(["verify", str(tmp_path / "t" / "decomposition.json"),
                     "--checks", "disjointness,coverage",
                     "--out", str(tmp_path / "vt")]) == 0


class TestAnalyzeCommand:
    def test_growth_without_space_exit_2(self, tmp_path, capsys):
        rc = main(["analyze", "growth", "--out", str(tmp_path)])
        assert rc == 2
        assert "--space" in capsys.readouterr().err
        rc = main(["analyze", "distortion", "--out", str(tmp_path)])
        assert rc == 2

    def test_growth_on_comb(self, tmp_path, capsys):
        main(["build", "comb", "--d", "2", "--extent", "40",
              "--out", str(tmp_path)])
        rc = main(["analyze", "growth", "--space", str(tmp_path / "space.json"),
                   "--center", "origin", "--r-min", "4",
                   "--out", str(tmp_path / "g")])
        assert rc == 0
        rep = json.loads(read(tmp_path / "g" / "growth.json"))
        assert 1.6 <= rep["fitted_exponent"] <= 2.4
        assert (tmp_path / "g" / "growth.csv").exists()

    def test_distortion_on_walk(self, tmp_path, capsys):
        main(["build", "walk", "--n-max", "6", "--out", str(tmp_path)])
        rc = main(["analyze", "distortion", "--map", str(tmp_path / "walk.json"),
                   "--anchored", "0", "--out", str(tmp_path / "d")])
        assert rc == 0
        rep = json.loads(read(tmp_path / "d" / "distortion.json"))
        assert rep["log_fit_ok"]
        assert rep["fitted_log_C"] < 4.0

    def test_distortion_anchored_outside_source_exit_2(self, tmp_path, capsys):
        main(["build", "walk", "--n-max", "3", "--out", str(tmp_path)])
        capsys.readouterr()
        rc = main(["analyze", "distortion", "--map", str(tmp_path / "walk.json"),
                   "--anchored", "999999", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "999999" in capsys.readouterr().err
        assert not (tmp_path / "d" / "distortion.json").exists()

    def test_escalation_on_tiling(self, tmp_path, capsys):
        main(["build", "tiling", "--r", "1", "--ball", "10", "--sep", "0.8",
              "--threshold", "1.6", "--out", str(tmp_path)])
        rc = main(["analyze", "escalation",
                   "--cover", str(tmp_path / "decomposition.json"),
                   "--s", "2", "--m", "1", "--out", str(tmp_path / "e")])
        assert rc == 0
        rows = json.loads(read(tmp_path / "e" / "escalation.json"))["rows"]
        assert len(rows) == 2

    def test_truncation_exit_5(self, tmp_path):
        main(["build", "tiling", "--r", "1", "--ball", "4", "--sep", "1.0",
              "--out", str(tmp_path)])
        rc = main(["analyze", "escalation",
                   "--cover", str(tmp_path / "decomposition.json"),
                   "--s", "2", "--m", "6", "--out", str(tmp_path / "e")])
        assert rc == 5


class TestReportCommand:
    def test_report_audits_outputs(self, tmp_path, capsys):
        main(["space", "--model", "z", "--range", "10", "--out", str(tmp_path)])
        rc = main(["report", str(tmp_path / "space.manifest.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "command: space" in out
        assert "[ok]" in out and "MODIFIED" not in out

    def test_report_flags_modified_output(self, tmp_path, capsys):
        main(["space", "--model", "z", "--range", "10", "--out", str(tmp_path)])
        with open(tmp_path / "points.csv", "a", encoding="utf-8") as fh:
            fh.write("tampered\n")
        rc = main(["report", str(tmp_path / "space.manifest.json")])
        assert rc == 4
        assert "MODIFIED" in capsys.readouterr().out


    @staticmethod
    def crafted_manifest(tmp_path, name):
        """A run manifest whose output ``name`` points at an existing file
        outside the manifest's directory, with the file's true digest."""
        import coarselab.artifacts as artifacts

        secret = tmp_path / "outside.txt"
        secret.write_text("not an output\n", encoding="utf-8")
        run = tmp_path / "run"
        run.mkdir()
        manifest = {"command": "space", "inputs": {}, "parameters": {},
                    "seed": 0, "tool_version": "0.1.0",
                    "outputs": {name(secret): artifacts.sha256_text(
                        "not an output\n")}}
        (run / "space.manifest.json").write_text(json.dumps(manifest),
                                                 encoding="utf-8")
        return run / "space.manifest.json"

    def test_report_rejects_parent_directory_output(self, tmp_path, capsys):
        path = self.crafted_manifest(tmp_path, lambda p: "../" + p.name)
        rc = main(["report", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "unsafe output" in captured.err
        assert "[ok]" not in captured.out

    def test_report_rejects_absolute_output(self, tmp_path, capsys):
        path = self.crafted_manifest(tmp_path, str)
        assert main(["report", str(path)]) == 2
        assert "[ok]" not in capsys.readouterr().out


class TestDeterminism:
    def test_space_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["space", "--model", "h2", "--ball", "6", "--sep", "1",
                       "--out", str(out)])
            assert rc == 0
        for name in ("space.json", "points.csv", "edges.csv",
                     "space.manifest.json"):
            assert read(a / name) == read(b / name)

    def test_walk_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["build", "walk", "--n-max", "5", "--out", str(out)])
        for name in ("walk.json", "verification.json",
                     "build-walk.manifest.json"):
            assert read(a / name) == read(b / name)

    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("COARSELAB_CACHE", str(cache))
        main(["build", "walk", "--n-max", "3", "--out", str(tmp_path / "w")])
        walk_text = read(tmp_path / "w" / "walk.json")
        import coarselab.artifacts as artifacts

        digest = artifacts.sha256_text(walk_text)
        assert (cache / digest).exists()
        rc = main(["verify", f"sha256:{digest}", "--checks", "fibers:max=3",
                   "--out", str(tmp_path / "v")])
        assert rc == 0


def test_walk_commands_stay_off_scipy_sparse(tmp_path):
    # the walk and its checks need no sparse graph code; importing
    # scipy.sparse would add about 22 MB to each of these processes
    import subprocess
    import sys

    walk = str(tmp_path / "walk.json")
    for argv in (["build", "walk", "--n-max", "5", "--out", str(tmp_path)],
                 ["verify", walk, "--checks", "fibers:max=3,adjacent",
                  "--out", str(tmp_path / "v")],
                 ["analyze", "distortion", "--map", walk, "--out",
                  str(tmp_path / "d")]):
        code = ("import sys; from coarselab.cli import main; "
                f"rc = main({argv!r}); print(rc, 'scipy.sparse' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout.split()
        assert out[-2:] == ["0", "False"], (argv, out)
