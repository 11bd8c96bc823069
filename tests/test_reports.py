"""Report content: pinned acceptance, edge and benchmark-input hashes and
verdicts, comparison rows against a cell-by-cell reference, seeds."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import framecert.runner as runner
from framecert.cli import main
from framecert.comparison import ComparisonScenario, comparison_certificate
from framecert.groups import product_set
from framecert.runner import canonical_json, run
from framecert.scenarios import build_frame, build_reference, is_seed, load_scenarios
from perfbench.run import child_env
from perfbench.workloads import scenario_text

# the comparisons with a lattice reference, and with an L that misses the identity
from test_comparison import _l_without_identity_comparison, _lattice_comparison

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "scenarios" / "acceptance.json"
PINNED_HASHES = ROOT / "perfbench" / "acceptance_hashes.json"


@pytest.mark.parametrize("parallelism", [1, 2])
def test_acceptance_hashes_match_the_pins(parallelism):
    pinned = json.loads(PINNED_HASHES.read_text(encoding="utf-8"))
    reports = run(load_scenarios(SUITE), parallelism=parallelism)
    assert {r["scenario_id"]: r["determinism_sha256"] for r in reports} == pinned


# Report paths the acceptance file does not reach: comparisons on a tensor
# rep, of Gabor Z4 against a Dirac lattice, against a Fourier lattice
# reference and with duplicate points; density with no samples, no points, samples outside a box
# carrier and a sample of the wrong rank (an error report); box sampling with
# a trial that escapes.  Every dimension is at most 8.
EDGE = Path(__file__).resolve().parent / "edge_scenarios.json"
EDGE_HASHES = {
    "edge-compare-duplicates-z5":
        "1e696714248f9896ccb7004f56a3bcda8a8d81e2dc080b816494b0809c9fb739",
    "edge-compare-fourier-lattice-z6":
        "4f01b378d19e074dd5fc2903499e066a358a13986d0998dcf333fb918e68ad36",
    "edge-compare-gabor-vs-dirac-z4":
        "a240e4c7b4af4f6d2f10a3c6d1eed01bb239c377ba589eff7c596441067faab0",
    "edge-compare-tensor-z2xz3":
        "0ee30edfd58971f9fd22bc249492ace480312c1108f0a6da61cd9ad027bfd13e",
    "edge-density-box-outside":
        "e65867cb7ea762a682eb26816cb755798fcd91c4ff270b0a594601fcd040a853",
    "edge-density-no-points":
        "5f855b6bbdb424d77ad2383e6e86f50078554bf2e341ba57f27945ff336fa103",
    "edge-density-no-samples":
        "ad1b5c64a448b4b8bb39c57591ffd683ea928c3522d34ec6a23329704984109c",
    "edge-density-wrong-rank":
        "f36155b96c2c8756401d93a7d7ac813c2bce66b5ee4af502a0e0dd37e50ea39c",
    "edge-sampling-box":
        "75ee0e29af31dc8f73e41a2d1b8919ca8e79d5a31b98ea015e868bb17a93f583",
}


@pytest.mark.parametrize("parallelism", [1, 2])
def test_edge_hashes_match_the_pins(monkeypatch, parallelism):
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)  # the pool path at parallelism 2
    reports = run(load_scenarios(EDGE), parallelism=parallelism)
    assert {r["scenario_id"]: r["determinism_sha256"] for r in reports} == EDGE_HASHES
    errors = {r["scenario_id"]: r["error"] for r in reports if r["error"] is not None}
    assert list(errors) == ["edge-density-wrong-rank"]
    summaries = {r["scenario_id"]: r["summary"] for r in reports}
    assert summaries["edge-density-no-samples"]["cell_count"] == 0
    assert summaries["edge-density-box-outside"]["boundary_total"] == 5
    assert summaries["edge-sampling-box"]["boundary_total"] == 1
    # B = 1/A of the dual would fail the trace's lower bound in 16 cells here;
    # with the reference's B, the chain holds in all 32
    assert summaries["edge-compare-gabor-vs-dirac-z4"] == {
        "cell_count": 32, "pass_total": 32, "fail_total": 0, "boundary_total": 0}


# -- verdict pins ----------------------------------------------------------------

# The discrete keys of a row: a frame check's name and ok, a cell's boundary
# flag, a density count, a sampling trial's holds, a comparison cell's rank,
# counts and flags.  A key that a row does not have reads None.
_ROW_VERDICT_KEYS = ("check", "boundary", "count", "holds", "rank_P", "card_X", "card_Y",
                     "chain_ok", "final_ok", "restricted_sum_ok", "identity_ok", "star_ok",
                     "trace_lemma_ok", "trace_lower_ok", "ok")


def verdict_digest(report: dict) -> str:
    """SHA-256 of a report's discrete content only: ok, the error type and
    the summary; the chosen L and each HAP candidate's passed and
    domination_ok; and the _ROW_VERDICT_KEYS of every row.  No float enters
    it, so a change that moves only rounding leaves it as it was, and a
    change that moves a determinism hash shows by this digest whether any
    verdict moved with it."""
    error = report["error"]
    verdict = {"ok": report["ok"], "error": error and error["type"], "summary": report["summary"]}
    if "certificate" in report:  # hap
        cert = report["certificate"]
        verdict["chosen_L"] = cert["chosen_L_radius"]
        verdict["candidates"] = [[c["passed"], c["domination_ok"]] for c in cert["candidates"]]
        rows = cert["table"]
    elif "certificates" in report:  # comparison
        verdict["chosen_L"] = report["hap_precondition"]["chosen_L_radius"]
        rows = report["certificates"]
    else:
        rows = report.get("table", report.get("checks", []))
    verdict["rows"] = [[row.get(key) for key in _ROW_VERDICT_KEYS] for row in rows]
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


ACCEPTANCE_VERDICTS = {
    "compare-dirac-vs-dirac-z8":
        "65b399aea1f004eee70af51f07807cdf9857860d3c388739d87b2a53c480241a",
    "compare-gabor-vs-dirac-z8":
        "9cb0b8b94f8dbc2105e84387fc105f2b5115dab86cb80174b5c068725a275e8c",
    "compare-gabor-vs-gabor-z8":
        "9a429383dce1cd14e511b901d726e2e3099a59a5da06dc93f89b3284caa1dc9f",
    "density-evens-z8":
        "386761c92557f5b7e81b04775f3d578c2c775cd4ded7b12a033edaa5d4d40597",
    "density-lattice-z16sq":
        "487ed19ee0dff0049b0ca1c3d12e7f206592bc41227b9f007f9e2d52be3312a1",
    # every check of the four frames is ok, so their verdicts are one digest
    "frame-dirac-onb-z8":
        "6dca3ed5655a1446b691467450806691365175c00c1793fb131006654089c594",
    "frame-fourier-onb-z8":
        "6dca3ed5655a1446b691467450806691365175c00c1793fb131006654089c594",
    "frame-gabor-z8-gauss":
        "6dca3ed5655a1446b691467450806691365175c00c1793fb131006654089c594",
    "frame-gabor-z8-lattice":
        "6dca3ed5655a1446b691467450806691365175c00c1793fb131006654089c594",
    "hap-gabor-z16-gauss-dirac01":
        "6c44a3101b75a3637c3a71e7b78e06928bee256c8b9059e735ab344498b2a9cd",
    "hap-gabor-z8-gauss-dirac0":
        "e488bdac256922dab224a334d9bc6772c8e185f728c1523b1fd4b619391e317f",
    "sampling-z16":
        "4dc1477c0d3da0fe03e65700f7fc2d9c9b60909cbf4ab9e77a966a2526df3bb1",
    "sampling-z8x8":
        "014ae1aa111f06d0c2d38bc56e0c718b55e8e4812b1ea1425dbe34d5a2560aa7",
}

EDGE_VERDICTS = {
    "edge-compare-duplicates-z5":
        "e2631ec56ee300927d49a5589e29ba441339afd21d7e6e1e31744afd75c979c2",
    "edge-compare-fourier-lattice-z6":
        "e8a7863e24b1748d8e4ed1e3fa41fd20f07977e19d97032a226bc8d59a09eaba",
    "edge-compare-gabor-vs-dirac-z4":
        "8f614beceae9992c899feceb02a39d124292f5d3f689d50baba98171144c104f",
    "edge-compare-tensor-z2xz3":
        "71158ca5fbde37cb0aa0a21b1e1872edcdc6317ce22488b4b8a062287d991971",
    "edge-density-box-outside":
        "b4784b8a800db0e8e39f41cf5796b9eb0b5de47331e8e10fd56b53f8e7e238e4",
    "edge-density-no-points":
        "4f469846c52c827158d0e06ab5c3d850d6cffa149145f9989ce46d99e8e18916",
    "edge-density-no-samples":
        "9bdd73bb7f01d1ffa00fd1d8346451880899eacc66ed192b794c3ffc72eb3dfc",
    "edge-density-wrong-rank":
        "af696905b915765fe827347a9c246a5ece57273d266f66be2929b0cef60bcc81",
    "edge-sampling-box":
        "b9a4694955a70ac0f6d118772cb08ecb81273d30070ae5442dd93b62f7f2fec5",
}


@pytest.mark.parametrize("path, pinned", [(SUITE, ACCEPTANCE_VERDICTS), (EDGE, EDGE_VERDICTS)],
                         ids=["acceptance", "edge"])
@pytest.mark.parametrize("parallelism", [1, 2])
def test_verdicts_match_the_pins(monkeypatch, path, pinned, parallelism):
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)  # the pool path at parallelism 2
    reports = run(load_scenarios(path), parallelism=parallelism)
    assert {r["scenario_id"]: verdict_digest(r) for r in reports} == pinned


def test_a_verdict_digest_moves_with_a_verdict_and_not_with_a_float():
    [report] = json.loads(runner.emit(run(load_scenarios(EDGE))[2:3]))
    assert report["scenario_id"] == "edge-compare-gabor-vs-dirac-z4"
    digest = verdict_digest(report)
    report["certificates"][0]["trace_T"] += 1e-9
    assert verdict_digest(report) == digest
    report["certificates"][0]["card_X"] += 1
    assert verdict_digest(report) != digest


# The seed-1 files of the benchmark's generated workloads, as
# perfbench.workloads.write_scenarios(workload, 1, root, path) writes them,
# with each report's (determinism_sha256, verdict digest) at --parallel 1 and
# one BLAS thread, as the benchmark runs them.  hap-gabor-z24's hash holds
# only there: with two OpenBLAS threads its table rounds differently.
BENCH_INPUTS = {
    "hap-ladder": (ROOT / "tests" / "bench_hap_ladder_seed1.json", {
        "hap-gabor-z16":
            ("5354e89f1fbab66cda5365712733c342594fd2480d6b72db6a3de335cd4370e5",
             "6c44a3101b75a3637c3a71e7b78e06928bee256c8b9059e735ab344498b2a9cd"),
        "hap-gabor-z24":
            ("829b030501b9c76d17ce95f846218749fe972c77b66573c3cbca78bbcf024020",
             "c24ef4159632205c2d7b136b2d2128f56f2a73a538ea60626e0f72ca9710d30f"),
        "probe-compare":
            ("e43770689c30d2cdde7d029618c357369138ebb2805780dede574362f9b44654",
             "8f614beceae9992c899feceb02a39d124292f5d3f689d50baba98171144c104f"),
        "probe-density":
            ("be4d23aad5d13166f3f1cec204032542ae93d533ab8144069bc9caa48c4138fe",
             "cf8fdbe3f4d33db083635c19c907ba737d016037880a4fce527c3a039530836d"),
        "probe-frame":
            ("fdc2924e5d7a9168b415d8cc28539b47fb5184a90a5805a508d5188ad1615469",
             "6dca3ed5655a1446b691467450806691365175c00c1793fb131006654089c594"),
        "probe-hap":
            ("bbbb5c24b5b168d427b464835bdc628c409680fa8c3e73300db7c1236d148563",
             "89fada5c7a77c65eefe7c2908ea21d8361b7be9c910e26e1f8773b88b648d5c4"),
        "probe-sampling":
            ("54f2b9961daa33e2f057bc33d28e6a7553eb5039c92b11d6eb77ec260b7fe678",
             "3376adffeeae24a937178f63ee35594ac9c3109fd0113d628e5882b391119204"),
    }),
    "carrier-scan": (ROOT / "tests" / "bench_carrier_scan_seed1.json", {
        "density-c24":
            ("dec2c195f2c92d9b28ada5cda796ffb58f297748e8b1d02bbcdc363454c96fff",
             "1aac98fdd9ba433366b2c99eecacec478305dc3cb8a92fcc641e043b025fd73a"),
        "density-c46":
            ("9a721cff1b734bfaae853e9f5e87b83c79ca54ab7b4c0ca45ead5ffa58192ec2",
             "9a037de7609008a6d9c31fedeee49f7a55d49e4d56aed7a744b03453db8b4d5e"),
        "probe-compare":
            ("8b1f3c605723869b96f575f83303d65be67d5f8e6e419ba67424a429640ebbcf",
             "8f614beceae9992c899feceb02a39d124292f5d3f689d50baba98171144c104f"),
        "probe-density":
            ("3f4667afc34af79dcc513d4f41984e482325d23989a7bc35d13b975e3fb716e2",
             "e1ca6bd86fc2fb664c92896dadeee951b2864276c2aee9c6903572ac7a1e3672"),
        "probe-frame":
            ("1b657731a46814e2332aa2e08e79b2bcc2e4714f48a87536f3892e62beb273af",
             "6dca3ed5655a1446b691467450806691365175c00c1793fb131006654089c594"),
        "probe-hap":
            ("45cb16460456a660dd89870aebd29cae1d1c48741f34e0cd8217f49a6ef221e2",
             "89fada5c7a77c65eefe7c2908ea21d8361b7be9c910e26e1f8773b88b648d5c4"),
        "probe-sampling":
            ("01c80a86e0e303c7b2107151b1b07fbec64cd4a2796af0cd715a6a68f3a43d74",
             "3376adffeeae24a937178f63ee35594ac9c3109fd0113d628e5882b391119204"),
        "sampling-c24":
            ("f5febfd5f15d826e2bfe3db0dcbbaa127247100736c750be59e32a2deca8c193",
             "d3709f799184934ac28ba0508163f6de5f357619c0673520f4744d7c4d025c10"),
        "sampling-c46":
            ("408e717bd76245aedaa6946d0bd55072fb7c0d3ec4b6a435d9f1a466c2a35e30",
             "d3709f799184934ac28ba0508163f6de5f357619c0673520f4744d7c4d025c10"),
    }),
}


@pytest.mark.parametrize("workload", BENCH_INPUTS)
def test_the_benchmark_inputs_keep_their_hashes_and_verdicts(workload):
    """The benchmark's seed-1 scenario files, committed as
    perfbench.workloads.write_scenarios(workload, 1, ROOT, path) wrote them,
    keep their pinned determinism hashes and verdict digests, so that byte
    drift on the benchmark's own inputs fails here and not only in a
    benchmark run."""
    path, pinned = BENCH_INPUTS[workload]
    assert path.read_text(encoding="utf-8") == scenario_text(workload, 1, ROOT)
    # a fresh interpreter, for the benchmark's environment: BLAS reads its
    # thread count once, when it loads
    done = subprocess.run(
        [sys.executable, "-m", "framecert.cli", "suite", "--scenarios", str(path)],
        env=child_env(), capture_output=True, check=True)
    reports = json.loads(done.stdout)
    assert {r["scenario_id"]: (r["determinism_sha256"], verdict_digest(r))
            for r in reports} == pinned


# A comparison cell's values and its flags, the last one ``ok``.
_VALUES = ("trace_T", "rank_P", "card_X", "card_Y", "lhs", "restricted_sum", "identity_error",
           "star_signed", "star_bound")
_FLAGS = ("chain_ok", "final_ok", "restricted_sum_ok", "identity_ok", "star_ok",
          "trace_lemma_ok", "trace_lower_ok", "ok")


def test_seed_predicate():
    assert is_seed(0) and is_seed(2**64 - 1)
    assert not is_seed(-1) and not is_seed(2**64)
    assert not is_seed(True) and not is_seed(1.0) and not is_seed("1") and not is_seed(None)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_rejects_seeds_outside_unsigned_64_bit(seed, capsys):
    assert main(["suite", "--scenarios", str(SUITE), "--seed", seed]) == 1
    assert "--seed" in capsys.readouterr().err


def test_cli_runs_the_largest_seed(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps([
        {"id": "s", "kind": "sampling_bound", "group": {"kind": "cyclic", "moduli": [8]},
         "trials": 2, "max_radius": 1},
        {"id": "f", "kind": "frame_analysis",
         "frame": {"rep": {"kind": "gabor", "n": 4}, "window": "gauss", "points": "full"}},
    ]))
    out = tmp_path / "out.json"
    top = str(2**64 - 1)
    assert main(["suite", "--scenarios", str(path), "--seed", top, "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert [r["seed"] for r in reports] == [2**64 - 1] * 2
    assert all(r["error"] is None and r["ok"] for r in reports)


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_cli_rejects_a_non_positive_parallel(parallel, capsys):
    assert main(["suite", "--scenarios", str(SUITE), "--parallel", parallel]) == 1
    assert "--parallel" in capsys.readouterr().err


def test_cli_runs_at_parallel_one(tmp_path):
    out = tmp_path / "out.json"
    args = ["frame-bounds", "--scenarios", str(SUITE), "--parallel", "1", "--out", str(out)]
    assert main(args) == 0
    assert all(r["ok"] for r in json.loads(out.read_text()))


def _cli_hashes(tmp_path, command, scenarios) -> dict:
    out = tmp_path / f"{command}.json"
    args = [command, "--scenarios", str(scenarios), "--parallel", "2", "--out", str(out)]
    assert main(args) == 0
    return {r["scenario_id"]: r["determinism_sha256"] for r in json.loads(out.read_text())}


def test_cli_at_parallel_two_keeps_the_pinned_hashes(tmp_path, monkeypatch):
    # Two CPUs, so the split HAP scan runs in the pool on any host.
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    pinned = json.loads(PINNED_HASHES.read_text(encoding="utf-8"))
    z16 = "hap-gabor-z16-gauss-dirac01"
    alone = tmp_path / "z16.json"
    alone.write_text(json.dumps(
        [s for s in json.loads(SUITE.read_text(encoding="utf-8")) if s["id"] == z16]))
    assert _cli_hashes(tmp_path, "hap", alone) == {z16: pinned[z16]}
    assert _cli_hashes(tmp_path, "suite", SUITE) == pinned


def test_cli_reports_an_unwritable_output_file(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["density", "--scenarios", str(SUITE), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("framecert: error: ") and err.count("\n") == 1
    assert "No such file or directory" in err and not out.exists()


def test_cli_reports_a_directory_given_as_scenario_file(capsys):
    assert main(["density", "--scenarios", str(SUITE.parent)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("framecert: error: ") and err.count("\n") == 1
    assert "Is a directory" in err


def _reference_rows(scenario) -> list[dict]:
    """A comparison report's rows cell by cell: each cell's values from
    comparison_certificate, with its y and K and the scenario's constants."""
    group = scenario.given.rep.group
    hap = scenario.hap_choice
    constants = {"L_radius": hap.chosen_l_label, "epsilon": scenario.epsilon,
                 "B_used": scenario.reference.analysis.B,
                 "B_provenance": "upper bound of reference frame",
                 "B_alternative": 1.0 / scenario.given.analysis.A}
    rows = []
    for K, k_label in zip(scenario.hap.K_family, scenario.hap.k_labels):
        kl_positions = product_set(K, hap.chosen_L).positions()
        for yp, y in enumerate(group.carrier):
            cell = comparison_certificate(scenario, yp, K.positions(), kl_positions)
            assert list(cell) == [*_VALUES, *_FLAGS]
            assert cell["ok"] == all(cell[flag] for flag in _FLAGS[:-1])
            rows.append({"y": y, "K_radius": k_label, **cell, **constants, "boundary": False})
    return rows


def _acceptance_comparison(scenario_id):
    """The shipped comparison ``scenario_id``, as the runner builds it."""
    spec = next(s for s in json.loads(SUITE.read_text(encoding="utf-8")) if s["id"] == scenario_id)

    def make():
        frame = build_frame(spec["frame"])
        reference = build_reference(spec["reference"], frame.rep)
        return ComparisonScenario(given=frame, reference=reference,
                                  **runner._families(spec, frame.rep.group))

    return make


_COMPARISONS = {
    "lattice": _lattice_comparison,  # duplicate points
    "l-without-identity": _l_without_identity_comparison,
    **{scenario_id: _acceptance_comparison(scenario_id)
       for scenario_id in ("compare-gabor-vs-dirac-z8", "compare-gabor-vs-gabor-z8",
                           "compare-dirac-vs-dirac-z8")},
}


@pytest.mark.parametrize("make", _COMPARISONS.values(), ids=_COMPARISONS.keys())
def test_comparison_rows_equal_the_cell_by_cell_reference(make):
    scenario = make()
    payload = runner._comparison_payload(scenario)
    rows = _reference_rows(scenario)
    table = payload["certificates"]
    assert len(table.blocks) == len(scenario.hap.K_family)
    assert table.text() == canonical_json(rows)
    assert payload["summary"] == runner._summary(rows, "ok")
