"""Hot-path lint: batch code must not build per-report objects in loops.

The columnar datapath's whole point is that a batch of reports crosses
every layer as a handful of arrays.  The easiest way to lose that (and
the 10x packet-path win the CI gate enforces) is a well-meaning edit that
re-introduces a per-report dataclass -- a ``RoceV2Packet`` here, a
``SlotWrite`` there -- inside a loop of a batch function.  This test
walks the AST of every hot-path module and fails on exactly that pattern,
with the offending ``file:line`` in the message.

Scalar reference paths (``report_into``, ``receive_frame``, ...) are
exempt: the rule applies only to functions whose names mark them as part
of the batch datapath (``*batch*`` / ``*columnar*`` / ``*_many``, the
naming convention the primitive translators' batched entry points use)
and to the columnar key fold ``fold_keys`` and row CRCs ``compute_rows`` /
``icrc_rows``, which must not slide back to one scalar fold or CRC per
row.  Comprehensions and generator expressions count as loops, and a
local alias of a banned callable (``crc = zlib.crc32``) is banned too.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules on the columnar datapath, switch to store.
HOT_PATH_MODULES = [
    SRC / "core" / "batch.py",
    SRC / "switch" / "dart_switch.py",
    SRC / "fabric" / "fabric.py",
    SRC / "fabric" / "impaired.py",
    SRC / "rdma" / "frames.py",
    SRC / "rdma" / "nic.py",
    SRC / "rdma" / "qp.py",
    SRC / "mem" / "region.py",
    SRC / "collector" / "collector.py",
    SRC / "collector" / "store.py",
    SRC / "collector" / "counters.py",
    SRC / "primitives" / "translator.py",
    SRC / "primitives" / "append.py",
    SRC / "primitives" / "sketch.py",
    SRC / "hashing" / "hash_family.py",
    SRC / "hashing" / "crc.py",
]

#: Batch functions whose names do not follow the naming convention.
BATCH_FUNCTION_NAMES = {"fold_keys", "compute_rows", "icrc_rows"}

#: Per-report object constructors and codecs.  Constructing any of these
#: once per report inside a batch loop defeats the columnar layout.
PER_REPORT_CONSTRUCTORS = {
    "SlotWrite",
    "SlotLocation",
    "RoceV2Packet",
    "EthernetHeader",
    "Ipv4Header",
    "UdpHeader",
    "Bth",
    "Reth",
    "AtomicEth",
    "unpack",  # RoceV2Packet.unpack and friends: per-frame decode
    "compute_icrc",  # the scalar iCRC; batch code uses icrc_rows
    "fold_key",  # the scalar key fold; batch code uses fold_keys
    "_fold_bytes",
    "splitmix64",  # the scalar mixer; batch code uses _splitmix64_np
    # Scalar CRCs; batch code uses CrcAlgorithm.compute_rows / icrc_rows.
    "compute",
    "crc8",
    "crc16",
    "crc32",
    "crc32c",
}

#: Loop constructs: statements and the comprehension family.
LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _terminal_name(node: ast.AST) -> str:
    """The terminal identifier of a name or attribute (``a.b.C`` -> ``C``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _call_name(node: ast.Call) -> str:
    """The terminal identifier of a call target (``a.b.C(...)`` -> ``C``)."""
    return _terminal_name(node.func)


def _banned_names(function: ast.AST) -> set:
    """Banned callables, plus ``function``'s local aliases of them."""
    banned = set(PER_REPORT_CONSTRUCTORS)
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and _terminal_name(node.value) in banned:
            banned.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
    return banned


def _batch_functions(tree: ast.AST):
    """Every (async) function whose name marks it as batch-datapath code."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            "batch" in node.name
            or "columnar" in node.name
            or node.name.endswith("_many")
            or node.name in BATCH_FUNCTION_NAMES
        ):
            yield node


def _loop_violations(function: ast.AST, path: pathlib.Path):
    """Banned calls inside any loop of ``function``."""
    banned = _banned_names(function)
    for node in ast.walk(function):
        if not isinstance(node, LOOP_NODES):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                name = _call_name(inner)
                if name in banned:
                    yield (
                        f"{path}:{inner.lineno}: {function.name}() calls "
                        f"{name}(...) inside a loop"
                    )


def test_hot_path_modules_exist():
    """The lint list tracks the real module layout."""
    for path in HOT_PATH_MODULES:
        assert path.is_file(), f"hot-path module moved or removed: {path}"


def test_no_per_report_objects_in_batch_loops():
    """Batch functions never allocate per-report objects per iteration."""
    violations = []
    for path in HOT_PATH_MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in _batch_functions(tree):
            violations.extend(_loop_violations(function, path))
    assert not violations, "\n".join(violations)


def test_lint_catches_a_seeded_violation():
    """The checker itself works: a synthetic offender is flagged."""
    tree = ast.parse(
        "def encode_batch(items):\n"
        "    out = []\n"
        "    for key, value in items:\n"
        "        out.append(RoceV2Packet(key, value))\n"
        "    return out\n"
    )
    function = next(_batch_functions(tree))
    flagged = list(_loop_violations(function, pathlib.Path("seeded.py")))
    assert len(flagged) == 1 and "RoceV2Packet" in flagged[0]


def test_lint_catches_a_scalar_key_fold():
    """A per-key fold inside ``fold_keys`` is flagged, loop or generator."""
    tree = ast.parse(
        "def fold_keys(keys):\n"
        "    lanes = np.fromiter((fold_key(k) for k in keys), dtype=np.uint64)\n"
        "    for key in keys:\n"
        "        splitmix64(_fold_bytes(stable_key_bytes(key)))\n"
        "    return lanes\n"
    )
    function = next(_batch_functions(tree))
    flagged = list(_loop_violations(function, pathlib.Path("seeded.py")))
    assert len(flagged) == 3
    assert {"fold_key", "splitmix64", "_fold_bytes"} == {
        line.split(" calls ")[1].split("(")[0] for line in flagged
    }


def test_lint_catches_a_per_row_crc():
    """The per-row CRC generators ``compute_rows`` once had are flagged,
    including the call through a local alias of ``zlib.crc32``."""
    tree = ast.parse(
        "def compute_rows(self, rows):\n"
        "    if not self.reflect_in:\n"
        "        return np.fromiter(\n"
        "            (self.compute(row.tobytes()) for row in rows),\n"
        "            dtype=np.uint32, count=len(rows))\n"
        "    data = np.ascontiguousarray(rows).tobytes()\n"
        "    width = rows.shape[1]\n"
        "    crc32_c = zlib.crc32\n"
        "    return np.fromiter(\n"
        "        (crc32_c(data[start:start + width])\n"
        "         for start in range(0, len(data), width)),\n"
        "        dtype=np.uint32, count=len(rows))\n"
    )
    function = next(_batch_functions(tree))
    flagged = list(_loop_violations(function, pathlib.Path("seeded.py")))
    assert {"compute", "crc32_c"} == {
        line.split(" calls ")[1].split("(")[0] for line in flagged
    }
