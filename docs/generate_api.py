"""Generate docs/API.md from the package's docstrings.

Run:  python docs/generate_api.py
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import re
import sys

import repro

OUT = os.path.join(os.path.dirname(__file__), "API.md")


def first_paragraph(doc: str) -> str:
    doc = inspect.cleandoc(doc or "")
    return doc.split("\n\n")[0].strip()


def public_members(module):
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", None) == module.__name__:
                yield name, obj


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated by `python docs/generate_api.py` from the docstrings.",
        "",
    ]
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            modules.append(importlib.import_module(info.name))
        except Exception as exc:  # pragma: no cover
            print(f"skipping {info.name}: {exc}", file=sys.stderr)
    modules.sort(key=lambda m: m.__name__)

    for module in modules:
        members = list(public_members(module))
        summary = first_paragraph(module.__doc__ or "")
        if not members and not summary:
            continue
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        if summary:
            lines.append(summary)
            lines.append("")
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            try:
                signature = str(inspect.signature(obj))
            except (TypeError, ValueError):
                signature = "(...)"
            # an object default's repr names its address, which changes
            # from run to run; drop it so the file regenerates identically
            signature = re.sub(r" at 0x[0-9a-f]+>", ">", signature)
            lines.append(f"### `{kind} {name}{signature}`")
            lines.append("")
            doc = first_paragraph(obj.__doc__ or "*(undocumented)*")
            lines.append(doc)
            lines.append("")
    with open(OUT, "w") as fh:
        fh.write("\n".join(lines).rstrip() + "\n")
    print(f"wrote {OUT} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
