"""Byte-identity guard: fixed-seed CLI runs must write the same files, byte for byte.

Each case runs `degseq.cli.main` and records two digests: one over every
output file except `metadata.json`, and one over `metadata.json` with its
`wall_time_s` (which varies) removed, dumped with sorted keys.  The two
exact-mode file digests were recorded from the oracle kernel whose completion
draws one uniform compatible member and inserts its missing edges in uniform
order; the sample-gnw and seq-approx-p file digests from the implementation
with the inlined coupling loop; the asymptotic ones from the kernel with
phased, thinned proposals.  The metadata digests, and the oracle
and `--runs 100` marginal cases, were recorded from the per-command `if/elif`
runner.  The `-block` cases, whose candidate streams run past 64 steps, were
recorded from the loop that drew each candidate step with `sample_pair`,
`entry` and `uniform()`.  The `sample-gnw-chung-lu` digests were recorded
from the dense-triangle W, before W was held as degree classes.  The
`couple-exact-regular-8-3` metadata digest was recorded from the exact
kernel that recounted every sub-family with the Python bit loop `bit_counts`.
The `couple` file digests were recorded from the step loop that runs every
Poisson step for both graphs, so that an escaped run's G is completed from
the loop's state, with no `approx_g` in `traces.ndjson`; the
`couple-asymptotic-restart` digests from the same loop, while the asymptotic
kernel still offered an exact maximum besides its certified bound, which the
case uses.  A refactor that changes the order of random draws, a weight, a
file format or a metadata entry changes a digest.
"""
import hashlib
import json

import pytest

import degseq.cli as cli
from degseq.randomness import RandomSource, sample_poisson
from degseq.samplers import DEAD_BASE_RESTARTS

CASES = {
    # n = 30 > oracle cap: 7 of 8 runs escape, each before its last step
    "couple-asymptotic-certified": (
        ["couple", "--degrees", "regular(30,4)", "--mode", "asymptotic",
         "--denom", "certified-bound", "--zeta", "0.7", "--seed", "3", "--runs", "8"],
        "d3054a4fb409bd30779ecc0b252d11a3e0e63f7fe230f2b16f705351f7b055c8",
        "12c2d1e8e05e40039f2c953ee951f2b3b7622da63b9bd86aa1c1da55faad1b6b",
    ),
    # one run escapes
    "couple-asymptotic-certified-small": (
        ["couple", "--degrees", "regular(7,2)", "--mode", "asymptotic",
         "--denom", "certified-bound", "--seed", "3", "--runs", "8"],
        "0b34fb1be2679f9e2e445f163a728b8f4996eb4c356bde395efb114d53c65e9e",
        "baa8d07d6baa15220606e33ba28fe3bcd88c04a27ec8c94a54b9275b97e3bb9c",
    ),
    # run 7 does not escape, and its completion restarts twice
    "couple-asymptotic-restart": (
        ["couple", "--degrees", "regular(12,3)", "--mode", "asymptotic",
         "--denom", "certified-bound", "--zeta", "0.7", "--seed", "1", "--runs", "8"],
        "5b8cb1172b3485b53e7daa38f334d4c2390ccd68a0602dc3bbca63dc99d7bab7",
        "6f458751fd9b728f7945176657ffc48c696561f93578f17eddd3700bf4c1b001",
    ),
    # the Poisson budget (about 4.7e3 steps) spans two 4096-step windows of
    # the candidate stream: every run escapes in the first window and runs
    # the rest of the stream through both graphs
    "couple-block-escape": (
        ["couple", "--degrees", "regular(400,33)", "--seed", "1", "--runs", "4"],
        "379612c3c7944624080a07083ca42b8f11fdc25d71f9a25bdee523c9f3ced97d",
        "6dc7083e69ada6d4f2d314aac40a53557e91f3b5d5e40a48e7ba03c18f57b3d2",
    ),
    # run 1 escapes in the second window, two steps before the end
    "couple-block-late-escape": (
        ["couple", "--degrees", "regular(400,33)", "--zeta", "0.7", "--seed", "1",
         "--runs", "4"],
        "e0a49b2ed4c7ff9c41b930c6857e4325d21dcb6f8b5f741d31a6f8e8c31f3275",
        "97544966dbcc5ff09337cce498f86aaaaa597e898959dd6327fe414984292aec",
    ),
    # no run escapes: the step loop reads both windows, then G is completed
    "couple-block-complete": (
        ["couple", "--degrees", "regular(400,33)", "--zeta", "0.9", "--seed", "1",
         "--runs", "4"],
        "17d1b562cdfadb32ee5b41ac0f7845695f951f70b04711d332c0463836a76924",
        "9c537bc67931c07048f41bb1a8c87081fd287469378715a7cedac44ed66161b3",
    ),
    # replica 8's step loop ends at a triangle, which no completion extends
    "couple-dead-base": (
        ["couple", "--degrees", "regular(4,2)", "--zeta", "0.9", "--zeta-prime", "0.1",
         "--seed", "1", "--runs", "9"],
        "9372ce497fe337f56a4a02e91ebae9dd1fb858d5d818f6ff23f3cf031cda6e46",
        "2e793138ca9ad166add2165aaf1ca758f58ad86f802f491aaaa4b1df59f7c3df",
    ),
    "couple-exact": (
        ["couple", "--degrees", "regular(6,2)", "--mode", "exact",
         "--denom", "exact-max", "--seed", "1", "--runs", "10"],
        "2f41db6fceac2ded6fe0d81407181be884c08829a8ab5cdbe238e81ac1ebe186",
        "b81dd78ae022bcaae9f94a53d464558391fbc32a618d94e4ee0aae135cc174af",
    ),
    # 19,355 members; the first recount after an insertion covers about
    # 8,300 of them, so the step loop counts sub-families of every size
    "couple-exact-regular-8-3": (
        ["couple", "--degrees", "regular(8,3)", "--mode", "exact",
         "--denom", "exact-max", "--seed", "1", "--runs", "10"],
        "a42bd8768f134ffe02ccc279c0a92b4bc9cb9dd5d56a4e38d78fd7dc5b9e2098",
        "c0ba4e2d985a39e3b6884d897aaf12384b6693575a3f979d2a4093f23f1f8776",
    ),
    "sample-gnd-exact-checkpoints": (
        ["sample-gnd", "--degrees", "regular(6,2)", "--mode", "exact",
         "--checkpoints", "1,3", "--seed", "5", "--runs", "20"],
        "de7457bdb3bb5d34e5c3a94732f0fc3d0d5462f87d25cab7122961be428ede33",
        "aaa002c229724c0711989ddbf2207682ac40e431ecd6b61abd97295b19544bf1",
    ),
    "sample-gnd-asymptotic": (
        ["sample-gnd", "--degrees", "regular(16,5)", "--mode", "asymptotic",
         "--seed", "1", "--runs", "6"],
        "64c6aa6114b7eabc5a15ff0d641cb1b62ef33aaed6362f6d73147226c5fd116c",
        "eedc160bd0713658940c366a399f2880ac92208c80c1fe1ec023f8aa18341479",
    ),
    # asymptotic snapshots from the insertion history; 2 dead-end restarts
    "sample-gnd-asymptotic-checkpoints": (
        ["sample-gnd", "--degrees", "regular(16,5)", "--mode", "asymptotic",
         "--checkpoints", "10,30", "--seed", "2", "--runs", "6"],
        "8d465658d33646506142181380dae809d75dc84c3dd2355d6069804c0ccd79ff",
        "b3e6a125d99faaa9ca7bb26e1f93bbee52decf4a876c6c89c82cfc025f7a36c7",
    ),
    # powerlaw draws its degrees through `uniforms(150)`, and each replica's
    # `uniforms(11175)` is larger than a full block; vertex ids reach three
    # digits, where string order and numeric order differ
    "sample-gnw-powerlaw": (
        ["sample-gnw", "--degrees", "powerlaw(150,2.5,2,20)", "--seed", "7", "--runs", "3"],
        "470cd61f4a1c242c57e9a26ac10f7547ce124c3ad939cafdaac08eb5b3ce634b",
        "47ce42685138948cd241c862cd843103fbbbffebd69a20d18809698467e07757",
    ),
    # twelve distinct degrees, so W has twelve degree classes
    "sample-gnw-chung-lu": (
        ["sample-gnw", "--degrees", "powerlaw(150,2.5,2,20)", "--w-kind", "chung-lu",
         "--seed", "7", "--runs", "3"],
        "868e8fe25fa8d4ecd2b9f92816abeb830a61e9d5d74d35a992b79cbe0cdff3f3",
        "c7d738aa1cddcb21502954bf88b05b688e4ae2a63cc85af2201728942ee3df23",
    ),
    "seq-approx-p": (
        ["seq-approx-p", "--degrees", "regular(10,3)", "--seed", "2", "--runs", "5"],
        "85557d3d2c0b20512ea0f20482d4a149b67cb47856a4723315510ae846add640",
        "4f36de1bb44b3da2d0864e01ccc96c5897b89c676ac8753bbcd90eb12af0e86c",
    ),
    # streams of about 115 steps: one window each
    "seq-approx-p-block": (
        ["seq-approx-p", "--degrees", "powerlaw(150,2.5,2,20)", "--seed", "7", "--runs", "3"],
        "45a3099a8b80ea426ce884ee56876ced0406a7306a11b0c709987824ac69c0c9",
        "237a94ce51c8c9d1488f76862b7b9c7c4d4e47e0063b594dee797d8fcc9b48e8",
    ),
    # streams of about 4.7e3 steps: two windows each
    "seq-approx-p-block-windows": (
        ["seq-approx-p", "--degrees", "regular(400,33)", "--seed", "7", "--runs", "2"],
        "df9b27983b7db4b272a6c7d0e8974c36e7a30153a309922de23ecf46a71a395b",
        "84566a4db6bf1e5171d087be8151b9be92ee232e2adbe4ed08cc8d3534b80cce",
    ),
    # 100 runs write the marginal report, marginals.csv and worst_abs_z
    "seq-approx-p-marginals": (
        ["seq-approx-p", "--degrees", "regular(6,3)", "--seed", "4", "--runs", "100"],
        "0ac7481f02be152683ccd0aba3d24396ccda49bb6d2ef5a911e33c9330a16789",
        "5572eb88179b8f9ac5ebcd78a17d741280a69c7657d702a8a49f43cb900c0df1",
    ),
    "sample-gnw-p-marginals": (
        ["sample-gnw", "--degrees", "regular(6,3)", "--w-kind", "p", "--seed", "4",
         "--runs", "100"],
        "e2ed19cc8170d4096fe574357e94a6ed269ef5710cc39597c5dbb22c93c4dbc4",
        "f7f3a2d632a93d33addb2623101daba9de8edf89ba3210ce9e4aa90342f80ccb",
    ),
    "oracle": (
        ["oracle", "--degrees", "regular(6,2)"],
        "ee702dd0292a5af906a7a83f91bffd8cfbd1a57813d449bdb77c24fbe4900c8b",
        "90739f4fbc3c2aaea193d32960e85a9b5d84cacb0a1411b29d40569634eb3277",
    ),
}


def run_case(args, out):
    """The digest of every output file but `metadata.json`, and of the metadata."""
    assert cli.main(args + ["--save-graphs", "--out", str(out)]) == 0
    files = sorted(p for p in out.iterdir() if p.name != "metadata.json")
    digest = hashlib.sha256()
    for path in files:
        digest.update(f"{path.name}:{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    meta = json.loads((out / "metadata.json").read_text())
    del meta["wall_time_s"]
    meta_digest = hashlib.sha256(json.dumps(meta, sort_keys=True).encode()).hexdigest()
    return digest.hexdigest(), meta_digest


def traces(out):
    return [json.loads(line) for line in (out / "traces.ndjson").read_text().splitlines()]


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_byte_identical(name, tmp_path):
    args, files_digest, meta_digest = CASES[name]
    assert run_case(args, tmp_path) == (files_digest, meta_digest)


def test_cases_cover_escape_completion_and_restart(tmp_path):
    # escaped runs go on past the escape step
    out = tmp_path / "big"
    run_case(CASES["couple-asymptotic-certified"][0], out)
    records = traces(out)
    assert any(r["fallback"] and r["fallback_step"] < r["poisson_steps"] for r in records)

    out = tmp_path / "restart"
    run_case(CASES["couple-asymptotic-restart"][0], out)
    records = traces(out)
    assert any(not r["fallback"] and r["completion_restarts"] > 0 for r in records)

    out = tmp_path / "small"
    run_case(CASES["couple-asymptotic-certified-small"][0], out)
    records = traces(out)
    assert any(r["fallback"] for r in records)
    assert any(not r["fallback"] for r in records)

    # run 8's step loop leaves G with no completion: G starts over
    out = tmp_path / "dead-base"
    run_case(CASES["couple-dead-base"][0], out)
    last = traces(out)[8]
    assert last["fallback"] and last["fallback_step"] == last["poisson_steps"]
    assert last["completion_restarts"] >= DEAD_BASE_RESTARTS

    out = tmp_path / "exact"
    run_case(CASES["couple-exact"][0], out)
    records = traces(out)
    assert any(r["fallback"] for r in records)
    assert any(not r["fallback"] for r in records)

    out = tmp_path / "gnd"
    run_case(CASES["sample-gnd-asymptotic-checkpoints"][0], out)
    assert json.loads((out / "metadata.json").read_text())["restarts"] > 0

    # the candidate stream's block path: streams of at least 64 steps, split
    # at the escape, crossing a window, and read to the end without escape
    out = tmp_path / "block-escape"
    run_case(CASES["couple-block-escape"][0], out)
    records = traces(out)
    assert all(r["fallback"] and r["poisson_steps"] - r["fallback_step"] > 64 for r in records)

    out = tmp_path / "block-late-escape"
    run_case(CASES["couple-block-late-escape"][0], out)
    records = traces(out)
    assert any(r["fallback"] and r["fallback_step"] > 4096 for r in records)

    out = tmp_path / "block-complete"
    run_case(CASES["couple-block-complete"][0], out)
    records = traces(out)
    assert all(not r["fallback"] and r["steps_total"] > 4096 for r in records)

    # each replica's first draw is its Poisson stream length
    for name, low, high in (("seq-approx-p-block", 64, 4096),
                            ("seq-approx-p-block-windows", 4096, 8192)):
        out = tmp_path / name
        run_case(CASES[name][0], out)
        meta = json.loads((out / "metadata.json").read_text())
        lengths = [sample_poisson(meta["lam_used"], RandomSource(meta["seed"], i))
                   for i in range(meta["runs"])]
        assert all(low < s <= high for s in lengths)

    for name in ("seq-approx-p-marginals", "sample-gnw-p-marginals"):
        out = tmp_path / name
        run_case(CASES[name][0], out)
        assert (out / "marginals.csv").exists()
        assert "worst_abs_z" in json.loads((out / "metadata.json").read_text())
