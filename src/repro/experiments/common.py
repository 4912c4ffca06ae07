"""Shared experiment worlds with in-process and optional on-disk caching.

Building a room + rendering a flight, or training the VO network, takes
tens of seconds; several experiments share them, so they are memoised per
configuration key for the lifetime of the process.

A second, optional tier persists built worlds to disk (pickle files keyed
by a hash of the configuration) so *repeated CLI invocations* skip the
expensive scene render / VO training too.  Enable it by exporting
``REPRO_WORLD_CACHE_DIR=/some/dir``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.nn.sequential import Sequential
from repro.scene.camera import PinholeCamera, body_camera_mount
from repro.scene.dataset import SyntheticRGBDScenes
from repro.scene.render import DepthRenderer
from repro.scene.scene import Scene, make_room_scene
from repro.scene.se3 import Pose
from repro.scene.trajectory import drone_orbit_states, states_to_controls
from repro.filtering.measurement import state_to_pose
from repro.vo.model import build_vo_mlp
from repro.vo.trainer import VODataset, VOTrainer

_ROOM_CACHE: dict = {}
_VO_CACHE: dict = {}

_ENV_CACHE_DIR = "REPRO_WORLD_CACHE_DIR"


def _keyed_rng(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """The run stream ``spawn_key`` (experiment number, purpose) of
    ``seed``.

    Keyed SeedSequence derivation never collides across base seeds; the
    old additive offsets (``cfg.seed + 100``/``+ 200``/``+ 77``) made
    e.g. E3's session stream at seed=0 equal its run stream at
    seed=-100 -- the DET002 bug class fixed in scene/dataset.py.  The
    streams are pinned by regression tests in
    tests/test_api_registry.py.
    """
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=spawn_key)
    )


def _cache_path(kind: str, key: tuple) -> Path | None:
    directory = os.environ.get(_ENV_CACHE_DIR)
    if not directory:
        return None
    digest = hashlib.sha256(repr((kind, key)).encode()).hexdigest()[:16]
    return Path(directory) / f"{kind}-{digest}.pkl"


def _disk_load(kind: str, key: tuple):
    """Best-effort pickle load; any failure counts as a miss."""
    path = _cache_path(kind, key)
    if path is None:
        return None
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except (OSError, pickle.PickleError, EOFError, AttributeError):
        return None


def _disk_store(kind: str, key: tuple, world) -> None:
    """Best-effort pickle store; failures never break world building."""
    path = _cache_path(kind, key)
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(world, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except (OSError, pickle.PickleError):
        pass


@dataclass
class RoomWorld:
    """A room scene with a rendered drone flight.

    Attributes:
        scene: the procedural room.
        cloud: (N, 3) mapping point cloud.
        camera: depth-camera intrinsics.
        mount: camera-to-body transform.
        states: (T, 4) ground-truth drone states.
        controls: (T, 4) odometry controls aligned with frames.
        depths: T rendered depth frames.
    """

    scene: Scene
    cloud: np.ndarray
    camera: PinholeCamera
    mount: Pose
    states: np.ndarray
    controls: np.ndarray
    depths: list[np.ndarray]


def build_room_world(
    seed: int = 7,
    n_steps: int = 25,
    n_cloud_points: int = 3000,
    image: tuple[int, int] = (40, 30),
) -> RoomWorld:
    """Room + flight + rendered frames (cached per argument set)."""
    key = (seed, n_steps, n_cloud_points, tuple(image))
    if key in _ROOM_CACHE:
        return _ROOM_CACHE[key]
    cached = _disk_load("room", key)
    if cached is not None:
        _ROOM_CACHE[key] = cached
        return cached
    rng = np.random.default_rng(seed)
    scene = make_room_scene(rng)
    cloud = scene.sample_point_cloud(n_cloud_points, rng, noise_std=0.01)
    camera = PinholeCamera.from_fov(image[0], image[1], fov_x_deg=70.0)
    mount = body_camera_mount(np.deg2rad(25.0))
    states = drone_orbit_states(
        center=np.zeros(3), radius=1.3, height=1.2, n_steps=n_steps
    )
    controls = np.vstack([np.zeros(4), states_to_controls(states)])
    renderer = DepthRenderer(scene, camera)
    depths = [renderer.render(state_to_pose(s, mount)) for s in states]
    world = RoomWorld(
        scene=scene,
        cloud=cloud,
        camera=camera,
        mount=mount,
        states=states,
        controls=controls,
        depths=depths,
    )
    _ROOM_CACHE[key] = world
    _disk_store("room", key, world)
    return world


@dataclass
class VOWorld:
    """A trained VO model with its datasets.

    Attributes:
        dataset: the synthetic RGB-D dataset.
        train: training split (scenes 0..n-2).
        val: held-out split (last scene).
        model: the trained MC-Dropout MLP.
        val_scene_index: index of the held-out scene.
    """

    dataset: SyntheticRGBDScenes
    train: VODataset
    val: VODataset
    model: Sequential
    val_scene_index: int


def build_vo_world(
    seed: int = 1,
    n_scenes: int = 6,
    frames_per_scene: int = 40,
    hidden: tuple[int, ...] = (128, 64),
    dropout_p: float = 0.5,
    epochs: int = 200,
) -> VOWorld:
    """Synthetic dataset + trained VO network (cached per argument set)."""
    key = (seed, n_scenes, frames_per_scene, tuple(hidden), dropout_p, epochs)
    if key in _VO_CACHE:
        return _VO_CACHE[key]
    cached = _disk_load("vo", key)
    if cached is not None:
        _VO_CACHE[key] = cached
        return cached
    dataset = SyntheticRGBDScenes(
        n_scenes=n_scenes,
        frames_per_scene=frames_per_scene,
        seed=seed,
        depth_noise_std=0.015,
    )
    train_scenes = list(range(n_scenes - 1))
    val_scene = n_scenes - 1
    train = VODataset.from_scenes(dataset, train_scenes)
    val = VODataset.from_scenes(
        dataset,
        [val_scene],
        encoder=train.encoder,
        scaler=train.scaler,
        feature_scaler=train.feature_scaler,
    )
    rng = np.random.default_rng(seed)
    model = build_vo_mlp(
        train.features.shape[1], rng, hidden=hidden, dropout_p=dropout_p
    )
    VOTrainer(model, lr=1.0e-3).fit(train, epochs=epochs, rng=rng)
    world = VOWorld(
        dataset=dataset,
        train=train,
        val=val,
        model=model,
        val_scene_index=val_scene,
    )
    _VO_CACHE[key] = world
    _disk_store("vo", key, world)
    return world
