"""Keypoint curvature toolkit.

Turns 15-keypoint shaft detections (three rows of five, base to tip) into
bend-angle measurements, aggregates them over video frame streams with the
max-angle rule, classifies cases against a configurable angle threshold,
and scores classifier performance. A synthetic planar-hinge generator
provides ground-truth frames for validating the measurement chain.
"""

__version__ = "0.1.0"
