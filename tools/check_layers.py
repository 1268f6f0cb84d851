#!/usr/bin/env python3
"""Layering lint: the src/ directories must form a DAG.

Builds the graph whose nodes are the directories under src/ and whose
edges are `#include "<dir>/..."` lines from a file in one directory to a
header in another. CLI entry points (*_main.cpp) sit on top of every
layer and are ignored. Exits 1 and prints one cycle when the graph has
any; otherwise prints the layers in dependency order and exits 0.

Usage: tools/check_layers.py [repo-root]
"""

import os
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/[^"]*"', re.MULTILINE)
SOURCE_SUFFIXES = (".h", ".cpp")


def include_graph(src):
    layers = sorted(
        d for d in os.listdir(src) if os.path.isdir(os.path.join(src, d))
    )
    edges = {layer: {} for layer in layers}  # layer -> {dep: first file}
    for layer in layers:
        for dirpath, _, filenames in os.walk(os.path.join(src, layer)):
            for name in sorted(filenames):
                if not name.endswith(SOURCE_SUFFIXES) or name.endswith("_main.cpp"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as handle:
                    for dep in INCLUDE_RE.findall(handle.read()):
                        if dep != layer and dep in edges:
                            edges[layer].setdefault(dep, os.path.relpath(path, src))
    return edges


def find_cycle(edges):
    """Returns one cycle as a list of layers (first == last), or None."""
    state = {}  # layer -> "open" while on the DFS stack, "done" after
    stack = []

    def visit(layer):
        state[layer] = "open"
        stack.append(layer)
        for dep in sorted(edges[layer]):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        stack.pop()
        state[layer] = "done"
        return None

    for layer in sorted(edges):
        if layer not in state:
            cycle = visit(layer)
            if cycle:
                return cycle
    return None


def topological_order(edges):
    order, seen = [], set()

    def visit(layer):
        seen.add(layer)
        for dep in sorted(edges[layer]):
            if dep not in seen:
                visit(dep)
        order.append(layer)

    for layer in sorted(edges):
        if layer not in seen:
            visit(layer)
    return order


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    edges = include_graph(os.path.join(root, "src"))
    cycle = find_cycle(edges)
    if cycle:
        print("check_layers: src/ include cycle: " + " -> ".join(cycle))
        for layer, dep in zip(cycle, cycle[1:]):
            print(f"  {layer} -> {dep}: src/{edges[layer][dep]}")
        return 1
    print("check_layers: %d layers form a DAG (dependencies first): %s"
          % (len(edges), " ".join(topological_order(edges))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
