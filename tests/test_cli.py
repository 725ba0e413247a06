"""End-to-end command line tests (exit codes, JSON shapes, determinism)."""

import hashlib
import itertools
import json

import pytest

from a4csl.a4 import CARTAN_A4
from a4csl.cli import main
from a4csl.counting import f_soc_values, f_ssl_values
from a4csl.icosian import Icosian
from a4csl.lattice import forms_equivalent


def test_count_ssl_json(tmp_path):
    out = tmp_path / "counts.json"
    assert main(["count", "ssl", "--max", "12", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    values = {row["n"]: row["count"] for row in payload["values"]}
    expected = f_ssl_values(12)
    assert values == {i: expected[i] for i in range(1, 13)}
    assert values[2] == 0 and values[4] == 6


def test_count_soc_text(capsys):
    assert main(["count", "soc", "--max", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["index", "count"]
    got = {int(a): int(b) for a, b in (ln.split() for ln in lines[1:])}
    expected = f_soc_values(6)
    assert got == {i: expected[i] for i in range(1, 7)}


def test_series_commands_pass(capsys):
    assert main(["series", "ssl", "--limit", "80"]) == 0
    assert "ok" in capsys.readouterr().out
    assert main(["series", "soc", "--limit", "80", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_csl_json_shape(tmp_path):
    out = tmp_path / "csl.json"
    assert main(["csl", "1,1,0,0,0,0,0,0", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["sigma"] == 2
    assert payload["denominator"] == 2
    assert payload["reduced_norm"] == "2"
    assert payload["basis"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                               [0, 0, 0, 2]]
    assert payload["rotation"][0] == ["0", "-1", "0", "0"]
    assert payload["index"] == payload["sigma"]


def test_csl_rejects_non_primitive():
    assert main(["csl", "2", "2", "0", "0", "0", "0", "0", "0"]) == 3


def test_csl_rejects_non_admissible():
    # find the first primitive icosian whose norm quadruple is not a
    # perfect square, then make sure the CLI reports a domain error
    for zc in itertools.product((0, 1), repeat=8):
        if not any(zc):
            continue
        q = Icosian.from_zcoords(zc)
        if q.is_primitive() and not q.is_admissible():
            coords = ",".join(str(c) for c in zc)
            assert main(["csl", coords]) == 3
            return
    raise AssertionError("no non-admissible sample found")


def test_ssl_subcommand_json(tmp_path):
    out = tmp_path / "ssl.json"
    assert main(["ssl", "1,1,0,0,0,0,0,0", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["norm_scale"] == 4
    assert payload["index"] == 16
    gram = payload["gram"]
    assert all(x % 4 == 0 for row in gram for x in row)
    reduced = [[x // 4 for x in row] for row in gram]
    assert forms_equivalent(reduced, CARTAN_A4)


def test_enumerate_icosians_unit_shell(capsys):
    assert main(["enumerate-icosians", "--trace-norm", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 120
    assert len(payload["zcoords"]) == 120


# sha256 of the outputs for trace norms 2..12 in turn, taken before the
# enumeration returned one coordinate tuple per +- pair
ENUMERATE_DIGESTS = {
    ("text", False): "2c264ffe2be6affd6d9f7185fd08493d354b00a6c64f358ca54418d47c40288d",
    ("text", True): "47fedf1f0c657cc04f5c478442803fd07ff816fe36951af47a8da7b0b7c06882",
    ("json", False): "744f4d34626231dde34e323b74458ad3b3845e954e67c1de48674a8b6c365c54",
    ("json", True): "8b60833878819f19209ec180b8874659fc02fcdb61fa8d12a6d4cee92f6ccda9",
}


@pytest.mark.parametrize("fmt, primitive", sorted(ENUMERATE_DIGESTS))
def test_enumerate_icosians_output_is_pinned(capsys, fmt, primitive):
    digest = hashlib.sha256()
    for t in range(2, 13):
        argv = ["enumerate-icosians", "--trace-norm", str(t), "--format", fmt]
        assert main(argv + ["--primitive"] * primitive) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ENUMERATE_DIGESTS[fmt, primitive]


def first_primitive_admissible(count):
    out = []
    for zc in itertools.product((-1, 0, 1), repeat=8):
        q = Icosian.from_zcoords(zc)
        if q.is_primitive() and q.is_admissible():
            out.append(zc)
            if len(out) == count:
                return out
    raise AssertionError(f"fewer than {count} samples")


# sha256 of the outputs for the first 40 primitive admissible icosians with
# coordinates in {-1, 0, 1}, in turn, taken before icosians were stored as
# their Z^8 coordinates alone
ICOSIAN_DIGESTS = {
    ("csl", "text"): "f961c3983490808e104ea343f72534e0a68d1af5117faf99a523bbb76f1a9de7",
    ("csl", "json"): "5e1c19a53866bf5adfb8f64d730219a1c452ead934b4184fb50b9e917712b244",
    ("ssl", "text"): "2f6685c91173e8487658bc26f1c7f499b558b5758594c46c71b365e15ae8aba0",
    ("ssl", "json"): "14a830b0c6826bb20128ecf5f15bcbabb55740aacd937c3801fb3219b2bbef84",
}


@pytest.mark.parametrize("command, fmt", sorted(ICOSIAN_DIGESTS))
def test_csl_and_ssl_output_is_pinned(capsys, command, fmt):
    digest = hashlib.sha256()
    for zc in first_primitive_admissible(40):
        assert main([command, *map(str, zc), "--format", fmt]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ICOSIAN_DIGESTS[command, fmt]


@pytest.mark.parametrize("command", ["csl", "ssl"])
def test_comma_list_may_start_negative(capsys, command):
    zc = ["-1", "1", "0", "0", "0", "0", "0", "0"]
    assert main([command, *zc]) == 0
    spaced = capsys.readouterr().out
    assert main([command, ",".join(zc)]) == 0
    assert capsys.readouterr().out == spaced
    assert main([command, ",".join(zc) + ",", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == [-1, 1, 0, 0, 0, 0, 0, 0]


def test_usage_errors_exit_two(capsys):
    assert main(["count"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["csl", "1", "2", "3"]) == 2
    capsys.readouterr()  # swallow usage noise


def test_verify_smoke_profile(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--profile", "smoke", "--format", "json",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1679c874b007f0f82511d054a12e7692ba6d486e371d19de4c235e55ca3299fb")
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert [s["name"] for s in payload["sections"]] == [
        "ssl-counts",
        "ssl-counts-dual",
        "soc-counts",
        "csl-samples",
        "series-identities",
    ]


def test_verify_threads_byte_identical(tmp_path):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert main(["verify", "--profile", "smoke", "--format", "json",
                 "--threads", "1", "--out", str(one)]) == 0
    assert main(["verify", "--profile", "smoke", "--format", "json",
                 "--threads", "4", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
