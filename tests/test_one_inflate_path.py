"""Every zlib stream of known inflated size goes through
``gdal_ray.io.codec.inflate``: no ``zlib.decompress(`` call lands anywhere
else in ``gdal_ray``, so a new payload codec cannot bypass libdeflate.

Allowed: the raw-deflate ``zlib.decompressobj(-15)`` reads in
``io/sozip.py``. A sozip chunk is a sync-flushed piece of one deflate
stream, read with ``max_length``, and libdeflate cannot stop partway
through a stream; ``sozip_validate`` checks its chunk reads against a
whole-member read by the same zlib code."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "gdal_ray"
HELPER = ("io/codec.py", "inflate")


def _decompress_calls(tree):
    """(line, enclosing top-level function) of each zlib.decompress call,
    by attribute (``zlib.decompress(``) or by name (``from zlib import
    decompress``)."""
    names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module == "zlib" for a in node.names if a.name == "decompress"}
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if ((isinstance(f, ast.Attribute) and f.attr == "decompress"
                 and isinstance(f.value, ast.Name) and f.value.id == "zlib")
                    or (isinstance(f, ast.Name) and f.id in names)):
                yield node.lineno, owner


def test_zlib_decompress_only_in_the_inflate_helper():
    found, in_helper = [], 0
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for line, owner in _decompress_calls(ast.parse(path.read_text(), str(path))):
            if (rel, owner) == HELPER:
                in_helper += 1
            else:
                found.append(f"gdal_ray/{rel}:{line}")
    assert not found, f"inflate through gdal_ray.io.codec.inflate instead: {found}"
    assert in_helper == 1  # the zlib fallback itself
