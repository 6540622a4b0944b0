"""Byte-identity guard: fixed-seed CLI runs must write the same files, byte for byte.

Each case runs `degseq.cli.main` and hashes every output file except
`metadata.json` (its wall time varies).  The exact-mode, sample-gnw and
seq-approx-p digests were recorded from the implementation with the inlined
coupling loop; the asymptotic ones from the kernel with phased, thinned
proposals.  A refactor that changes the order of random draws, a weight, or
a file format changes a digest.
"""
import hashlib
import json

import pytest

import degseq.cli as cli

CASES = {
    # n = 30 > oracle cap: escapes redraw G with the asymptotic sampler
    "couple-asymptotic-certified": (
        ["couple", "--degrees", "regular(30,4)", "--mode", "asymptotic",
         "--denom", "certified-bound", "--zeta", "0.7", "--seed", "3", "--runs", "8"],
        "766beef0ecd76070003d4e98ad5be02a1e8385f13310f30d8bb8658dd10e6a0d",
    ),
    # n = 7 <= oracle cap: the escape redraws G exactly from the family
    "couple-asymptotic-certified-small": (
        ["couple", "--degrees", "regular(7,2)", "--mode", "asymptotic",
         "--denom", "certified-bound", "--seed", "3", "--runs", "8"],
        "6c09947ada5c44b3035f6f349bdb3c1bf0163b7ecc0860871c60b35199e05f39",
    ),
    # run 6 completes after a dead-end restart
    "couple-asymptotic-exact-max": (
        ["couple", "--degrees", "regular(12,3)", "--mode", "asymptotic",
         "--denom", "exact-max", "--zeta", "0.7", "--seed", "3", "--runs", "8"],
        "afce48586dc5f2471100cf7e9035182937603c7a45799abe7100ae81c741ff64",
    ),
    "couple-exact": (
        ["couple", "--degrees", "regular(6,2)", "--mode", "exact",
         "--denom", "exact-max", "--seed", "1", "--runs", "10"],
        "c795a929cfbaaf39b284461df1d04dcae9f6e822549184469e316e00c9048dd6",
    ),
    "sample-gnd-exact-checkpoints": (
        ["sample-gnd", "--degrees", "regular(6,2)", "--mode", "exact",
         "--checkpoints", "1,3", "--seed", "5", "--runs", "20"],
        "7179445eec588c841e3a6a17af51c91016c3e95077929720623506380a5429c8",
    ),
    "sample-gnd-asymptotic": (
        ["sample-gnd", "--degrees", "regular(16,5)", "--mode", "asymptotic",
         "--seed", "1", "--runs", "6"],
        "64c6aa6114b7eabc5a15ff0d641cb1b62ef33aaed6362f6d73147226c5fd116c",
    ),
    # asymptotic snapshots from the insertion history; 2 dead-end restarts
    "sample-gnd-asymptotic-checkpoints": (
        ["sample-gnd", "--degrees", "regular(16,5)", "--mode", "asymptotic",
         "--checkpoints", "10,30", "--seed", "2", "--runs", "6"],
        "8d465658d33646506142181380dae809d75dc84c3dd2355d6069804c0ccd79ff",
    ),
    # powerlaw draws its degrees through `uniforms(150)`, and each replica's
    # `uniforms(11175)` is larger than a full block; vertex ids reach three
    # digits, where string order and numeric order differ
    "sample-gnw-powerlaw": (
        ["sample-gnw", "--degrees", "powerlaw(150,2.5,2,20)", "--seed", "7", "--runs", "3"],
        "470cd61f4a1c242c57e9a26ac10f7547ce124c3ad939cafdaac08eb5b3ce634b",
    ),
    "seq-approx-p": (
        ["seq-approx-p", "--degrees", "regular(10,3)", "--seed", "2", "--runs", "5"],
        "85557d3d2c0b20512ea0f20482d4a149b67cb47856a4723315510ae846add640",
    ),
}


def run_case(args, out):
    assert cli.main(args + ["--save-graphs", "--out", str(out)]) == 0
    files = sorted(p for p in out.iterdir() if p.name != "metadata.json")
    digest = hashlib.sha256()
    for path in files:
        digest.update(f"{path.name}:{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return digest.hexdigest()


def traces(out):
    return [json.loads(line) for line in (out / "traces.ndjson").read_text().splitlines()]


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_byte_identical(name, tmp_path):
    args, expected = CASES[name]
    assert run_case(args, tmp_path) == expected


def test_cases_cover_escape_completion_and_restart(tmp_path):
    out = tmp_path / "big"
    run_case(CASES["couple-asymptotic-certified"][0], out)
    records = traces(out)
    assert any(r["fallback"] and r["approx_g"] for r in records)

    out = tmp_path / "restart"
    run_case(CASES["couple-asymptotic-exact-max"][0], out)
    records = traces(out)
    assert any(not r["fallback"] and r["completion_restarts"] > 0 for r in records)

    out = tmp_path / "small"
    run_case(CASES["couple-asymptotic-certified-small"][0], out)
    records = traces(out)
    assert any(r["fallback"] and not r["approx_g"] for r in records)
    assert any(not r["fallback"] for r in records)

    out = tmp_path / "exact"
    run_case(CASES["couple-exact"][0], out)
    records = traces(out)
    assert any(r["fallback"] for r in records)
    assert any(not r["fallback"] for r in records)

    out = tmp_path / "gnd"
    run_case(CASES["sample-gnd-asymptotic-checkpoints"][0], out)
    assert json.loads((out / "metadata.json").read_text())["restarts"] > 0
