"""Boosted sliding-window object detection.

Weak classifiers come from four visual feature families (paired
rectangles, control points, a symmetric three-pair rectangle test, and
8-connected point chains), searched evolutionarily and combined by
AdaBoost into a strong classifier that a multi-scale sliding-window
detector applies to full frames.

The package root re-exports nothing: each name is imported from the
module that defines it (``boostdet.detector.scan``,
``boostdet.pipeline.train_detector``, ``boostdet.modelio.load_model``, ...).
"""
