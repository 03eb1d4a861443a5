"""The SVG overlay is well-formed XML whatever the detection, angles and canvas."""

import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kpcurve.overlay import render_svg

SVG = "{http://www.w3.org/2000/svg}"

unit = st.floats(0.0, 1.0)
# a few fixed values make ties for the largest angle likely
angle = st.one_of(st.floats(0.0, 180.0), st.sampled_from([0.0, 45.0, 90.0, 180.0]))
canvas = st.one_of(st.integers(1, 4096), st.integers(1, 10**20))


@given(
    box=st.lists(unit, min_size=4, max_size=4),
    points=st.lists(unit, min_size=30, max_size=30),
    angles=st.lists(angle, min_size=4, max_size=4),
    width=canvas,
    height=canvas,
)
@settings(max_examples=200, deadline=None)
def test_render_svg_is_well_formed(box, points, angles, width, height):
    keypoints = np.array(points).reshape(15, 2)
    root = ET.fromstring(render_svg(np.array(box), keypoints, np.array(angles), width, height))

    assert [child.tag.removeprefix(SVG) for child in root] == (
        ["rect"] + ["polyline"] * 3 + ["circle"] * 15 + ["text"] * 4
    )
    circles = root.findall(f"{SVG}circle")
    for circle, (x, y) in zip(circles, keypoints.tolist()):
        assert (circle.get("cx"), circle.get("cy")) == (f"{x * width:g}", f"{y * height:g}")

    # the largest angle wins, the deviation before a bend and a low bend before a high one
    if angles[0] == max(angles):
        highlighted = "deviation"
    else:
        highlighted = f"bend{1 + angles[1:].index(max(angles[1:]))}"
    texts = root.findall(f"{SVG}text")
    bold = [t.text.split()[0] for t in texts if t.get("font-weight") == "bold"]
    assert bold == [highlighted]
